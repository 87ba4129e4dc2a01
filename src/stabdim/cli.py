"""Command-line front end of stabdim: one command per task.

An option takes its value as --opt value or --opt=value, and a unique prefix
of its name stands for it (--form machine). Given twice, the last value wins.
A value that starts with "-" is read as one only if it looks like a negative
number (--seed -5). analyze, verify and enumerate read one input: --file,
--graph6, or --family with --n. "stabdim <command> --help" lists a command's
options.

Exit codes:
  0    success
  1    usage error
  2    parse error
  3    constraint violation (disconnected input without --components, size caps,
       out of memory)
  4    internal consistency failure (a route disagreement, which always means a bug)
  74   output error (a write to stdout failed)
  141  the reader closed stdout early
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterator
from types import SimpleNamespace

from . import oracle
from .configurations import (
    AXES,
    CLOSED_TWIN,
    LEAF,
    TWIN,
    Analysis,
    analyze,
    detect_configurations,
    lie_generator,
    pair_runs,
    require_core_input,
)
from .errors import ConsistencyError, ConstraintError, GraphParseError
from .graphs import (
    FAMILIES,
    Graph,
    check_family,
    check_graph6_size,
    edge_list_chunks,
    encode_graph6,
    generate,
    parse_edge_list,
    parse_graph6,
)
from .pauli import low_weight_elements
from .oracle import ORACLE_CEILING
from .theorem import check_equivalence, check_routes

# --oracle-max-n defaults to DEFAULT_ORACLE_CAP, the largest n --components also
# runs the oracle for, and stops at oracle.ORACLE_CEILING, checked before the
# input is read. _load_graph checks that cap and BRUTE_MAX_N as soon as n is
# known, so a --family input is refused before generate builds it. BRUTE_MAX_N
# is contract: brute enumeration costs only O(n**2) row XORs.
DEFAULT_ORACLE_CAP = 14
BRUTE_MAX_N = 28


class UsageError(Exception):
    pass


def format_report(
    g: Graph, a: Analysis, nullity: int | None, source: str, components: bool, mode: str = "text"
) -> Iterator[str]:
    """The report in chunks: its head, one chunk per twin or closed-twin class
    head (its pairs with each later member of its class), one for all the
    leaves, then its tail, so no chunk is longer than O(n) lines. An unknown
    ``mode`` raises ValueError here, before any chunk is made."""
    if mode == "machine":
        return _machine_report(g, a, nullity)
    if mode != "text":
        raise ValueError(f"unknown report mode {mode!r}")
    return _text_report(g, a, nullity, source, components)


def _machine_report(g: Graph, a: Analysis, nullity: int | None) -> Iterator[str]:
    # The bytes json.dumps(record, separators=(",", ":")) gives, spelled out
    # with one format per field: every value is an int, a bool or a kind name.
    true_false = {True: "true", False: "false"}
    yield (
        '{"n":%d,"m":%d,"connected":%s,"dimension":%d,"g2":%d,"theorem_holds":%s,'
        '"configurations":['
        % (g.n, g.m, true_false[a.connected], a.dimension, a.g2, true_false[a.dimension == a.g2])
    )
    leaves = ",".join(['{"kind":"%s","a":%d,"b":%d}' % (LEAF, x, b) for x, b in a.leaves])
    comma = ""
    for chunk in _configuration_chunks(a, _machine_run, leaves):
        yield comma + chunk
        comma = ","
    tail = "]"
    if nullity is not None:
        # check_routes has passed, so a nullity given here equals the dimension.
        tail += ',"oracle_nullity":%d,"oracle_agrees":true' % nullity
    yield tail + "}\n"


def _machine_run(kind: str, x: int, labels: list[str]) -> str:
    head = '{"kind":"%s","a":%d,"b":' % (kind, x)
    return head + ("}," + head).join(labels) + "}"


def _text_run(kind: str, x: int, labels: list[str]) -> str:
    p, q = AXES[kind]
    head, middle = f"  {kind} a={x} b=", f" generator {p}({x})-{q}("
    return "".join([f"{head}{y}{middle}{y})\n" for y in labels])


def _configuration_chunks(a: Analysis, run, leaves: str) -> Iterator[str]:
    """A report's configuration chunks in report order: ``run(kind, x, labels)``
    per twin class head x, with the labels of its class's later members, then
    ``leaves`` unless empty, then ``run`` per closed-twin class head. Each class
    member's label is made once: a class of k vertices prints them Theta(k^2) times."""
    label = {v: str(v) for classes in (a.open_classes, a.closed_classes) for c in classes for v in c}
    for x, bs in pair_runs(a.open_classes):
        yield run(TWIN, x, [label[b] for b in bs])
    if leaves:
        yield leaves
    for x, bs in pair_runs(a.closed_classes):
        yield run(CLOSED_TWIN, x, [label[b] for b in bs])


def _text_report(
    g: Graph, a: Analysis, nullity: int | None, source: str, components: bool
) -> Iterator[str]:
    yes_no = {True: "yes", False: "no"}
    lines = [f"source: {source}", f"n: {g.n}", f"m: {g.m}", f"connected: {yes_no[a.connected]}"]
    if components:
        lines.append("mode: component-sum extension")
    found = a.leaves or a.open_classes or a.closed_classes
    lines.append("configurations:" if found else "configurations: none")
    yield "\n".join(lines) + "\n"
    p, q = AXES[LEAF]
    leaf = f"  {LEAF} a=%d b=%d generator {p}(%d)-{q}(%d)\n"
    leaves = "".join([leaf % (x, b, x, b) for x, b in a.leaves])
    yield from _configuration_chunks(a, _text_run, leaves)
    lines = [f"dimension: {a.dimension}"]
    # local unitary group has dimension 3n+1; the orbit gets the rest
    lines.append(f"orbit_dimension: {3 * g.n + 1 - a.dimension} (derived)")
    lines.append(f"g2: {a.g2}")
    # Past check_routes, a gap is one per single-edge component (dimension 3, g2 2).
    gap = a.dimension - a.g2
    note = ""
    if gap:
        plural = "s" if gap > 1 else ""
        note = (
            " (expected boundary for n = 2)"
            if g.n == 2
            else f" (expected boundary: {gap} component{plural} with n = 2)"
        )
    lines.append(f"theorem_holds: {yes_no[a.dimension == a.g2]}{note}")
    if nullity is not None:
        lines.append(f"oracle_nullity: {nullity}")
        lines.append("oracle_agrees: yes")
    yield "\n".join(lines) + "\n"


def _family_args(args) -> tuple:
    """``generate``'s arguments, refusing what it would refuse before any edge is built."""
    if args.family == "gnp" and args.p is None:
        raise UsageError("family gnp requires --p")
    if args.family != "gnp" and args.p is not None:
        raise UsageError(f"--p only applies to family gnp, not {args.family}")
    check_family(args.family, args.n, args.p)
    return args.family, args.n, args.p, args.seed


def _load_graph(args, cap: tuple[str, int] | None = None) -> tuple[Graph, str]:
    """The chosen input and its source line, e.g. ``graph6 A_``. A ``(name, max_n)``
    cap refuses a larger n as soon as n is known, before a family graph is built."""
    chosen = [
        name
        for name in ("file", "graph6", "family")
        if getattr(args, name, None) is not None
    ]
    if len(chosen) != 1:
        raise UsageError("exactly one input source required: --file, --graph6, or --family")
    kind = chosen[0]
    if kind != "family" and (args.n is not None or args.p is not None):
        raise UsageError("--n and --p only apply to --family")
    if kind == "file":
        g, source = _read_edge_list(args.file), f"edge-list {args.file}"
    elif kind == "graph6":
        g, source = parse_graph6(args.graph6), f"graph6 {args.graph6.strip()}"
    else:
        if args.n is None:
            raise UsageError("--family requires --n")
        family_args = _family_args(args)
        _check_cap(cap, args.n)
        g = generate(*family_args)
        detail = f"n={args.n}"
        if args.p is not None:
            detail += f",p={args.p}"
        if args.family in ("tree", "gnp"):
            detail += f",seed={args.seed}"
        return g, f"family {args.family}({detail})"
    _check_cap(cap, g.n)
    return g, source


def _read_edge_list(path: str) -> Graph:
    """The edge list in the file at ``path``. A file is parsed as it is read, a
    window at a time; a pipe, which cannot be read twice, is read whole. One
    leading byte-order mark, as some editors write, is not part of the list.
    A file that is not UTF-8 is refused with the message a whole-file decode
    gives, also when a line before the undecodable byte is at fault."""
    try:
        with open(path, encoding="utf-8") as handle:
            try:
                if not handle.seekable():
                    return parse_edge_list(handle.read().removeprefix("\ufeff"))
                try:
                    if handle.read(1) != "\ufeff":
                        handle.seek(0)
                    return parse_edge_list(handle)
                except (GraphParseError, ConstraintError):
                    while handle.read(_BLOCK_CHARS):  # decode the rest: a bad byte comes first
                        pass
                    raise
            except UnicodeDecodeError:
                if handle.seekable():
                    handle.buffer.seek(0)
                    handle.buffer.read().decode("utf-8")  # raises the whole file's message
                raise
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphParseError(f"cannot read {path}: {exc}") from None


def _check_cap(cap: tuple[str, int] | None, n: int) -> None:
    if cap is not None and n > cap[1]:
        raise ConstraintError(f"{cap[0]} cap is n={cap[1]}, got n={n}")


def _report(g: Graph, source: str, args, with_oracle: bool) -> int:
    """Write the report once every route agrees; a disagreement raises first (exit 4)."""
    a = analyze(g)
    if not args.components:
        if not a.connected:
            raise ConstraintError("graph is disconnected; pass --components to sum per component")
        require_core_input(a)
    # The paper's theory covers connected graphs only, so cross-check component
    # sums against the oracle whenever it is in reach.
    run_oracle = with_oracle or (args.components and g.n <= DEFAULT_ORACLE_CAP)
    nullity = oracle.local_algebra_nullity(g) if run_oracle else None
    check_routes(g, dimension=a.dimension, g2=a.g2, nullity=nullity)
    report = format_report(g, a, nullity, source, args.components, args.format)
    sys.stdout.writelines(_blocks(report))
    return 0


_BLOCK_CHARS = 1 << 16


def _blocks(chunks) -> Iterator[str]:
    """``chunks`` joined into blocks of about ``_BLOCK_CHARS`` characters, so a
    writer holds one block at a time and an unbuffered stdout
    (``PYTHONUNBUFFERED``) still makes one write per block, not one per chunk."""
    block, held = [], 0
    for chunk in chunks:
        block.append(chunk)
        held += len(chunk)
        if held >= _BLOCK_CHARS:
            yield "".join(block)
            block, held = [], 0
    yield "".join(block)


def _cmd_analyze(args) -> int:
    return _report(*_load_graph(args), args, False)


def _cmd_verify(args) -> int:
    if args.oracle_max_n > ORACLE_CEILING:
        raise ConstraintError(f"--oracle-max-n has a hard ceiling of {ORACLE_CEILING}")
    return _report(*_load_graph(args, ("oracle", args.oracle_max_n)), args, True)


def _cmd_enumerate(args) -> int:
    modes = ("brute", "fast") if args.mode == "both" else (args.mode,)
    g, _ = _load_graph(args, ("enumeration", BRUTE_MAX_N) if "brute" in modes else None)
    results = {mode: low_weight_elements(g, mode=mode) for mode in modes}
    check_routes(g, **results)  # each list under its route's name; one alone meets no rule
    elements = results[modes[0]]
    width = f"0{g.n}b"
    sys.stdout.writelines(_blocks(f"{format(e, width)[::-1]} {p}\n" for e, p in elements))
    return 0


def _cmd_gen(args) -> int:
    if args.family is None or args.n is None:
        raise UsageError("gen requires --family and --n")
    family_args = _family_args(args)
    if args.format == "graph6":
        check_graph6_size(args.n)
        sys.stdout.write(encode_graph6(generate(*family_args)) + "\n")
    else:
        sys.stdout.writelines(_blocks(edge_list_chunks(generate(*family_args))))
    return 0


def _cmd_selftest(args) -> int:
    """Every gate call runs before any line is written, so exit 4 leaves stdout empty;
    the rows are the checks that no gate makes."""
    del args
    k2, star7, c5 = generate("complete", 2), generate("star", 7), generate("cycle", 5)
    rep2, rep7, rep5 = (check_equivalence(g, with_oracle=True) for g in (k2, star7, c5))
    for g in (k2, star7, c5, generate("path", 6), generate("complete", 5)):
        check_routes(g, brute=low_weight_elements(g, "brute"), fast=low_weight_elements(g, "fast"))
    generators = sorted(map(str, map(lie_generator, detect_configurations(k2))))
    checks = (
        ("2-qubit graph state has stabilizer dimension 3", rep2.dimension == 3),
        ("2-qubit generators are X(0)-Z(1), X(1)-Z(0), Y(0)-Y(1)",
         generators == ["X(0)-Z(1)", "X(1)-Z(0)", "Y(0)-Y(1)"]),
        ("7-vertex star has dimension n-1 = 6", rep7.dimension == 6),
        ("5-cycle has dimension 0 and no weight-<=2 elements", rep5.dimension == rep5.g2 == 0),
    )
    for label, passed in checks:
        sys.stdout.write(f"{'ok' if passed else 'FAIL'} - {label}\n")
    return 0 if all(passed for _, passed in checks) else 4


# The command-line grammar, the one owner of every command and option: each
# command's handler, help line and options. An option is (kind, default, help),
# where kind is int, float or str (the value is converted with it), a tuple of
# choices, or bool (a flag). The parser, the defaults and the help all read it.
_SOURCE = {
    "--file": (str, None, "edge-list file path"),
    "--graph6": (str, None, "graph6 string"),
}
_FAMILY = {
    "--family": (FAMILIES, None, "named graph family"),
    "--n": (int, None, "vertex count for --family"),
    "--p": (float, None, "edge probability (gnp only)"),
    "--seed": (int, 0, "PRNG seed (tree/gnp)"),
}
_REPORT = {
    **_SOURCE,
    **_FAMILY,
    "--components": (bool, False, "sum over components"),
    "--format": (("text", "machine"), "text", "report format"),
}
COMMANDS = {
    "analyze": (_cmd_analyze, "configuration fast path", _REPORT),
    "verify": (_cmd_verify, "fast path plus exact oracle", {
        **_REPORT,
        "--oracle-max-n": (
            int, DEFAULT_ORACLE_CAP, f"largest n for the oracle, at most {ORACLE_CEILING}"
        ),
    }),
    "enumerate": (_cmd_enumerate, "list weight-<=2 stabilizer elements", {
        **_SOURCE,
        **_FAMILY,
        "--mode": (("brute", "fast", "both"), "both", "route that lists the elements"),
    }),
    "gen": (_cmd_gen, "emit a family or seeded random graph", {
        **_FAMILY,
        "--format": (("graph6", "edge-list"), "graph6", "output format"),
    }),
    "selftest": (_cmd_selftest, "run the built-in worked examples", {}),
}
_HELP = ("-h", "--help")


def _parse(argv: list[str]):
    """``(handler, its argument)`` for a command line, read as argparse reads it,
    with its wording for the first fault (a UsageError). ``-h`` or ``--help``
    gives ``(_help, command)``, command None if it comes before any command."""
    extras = []
    readings = _read(argv, _HELP)
    for i, (word, reading) in enumerate(zip(argv, readings)):
        # A "--" with words after it is read as the command, as argparse reads it.
        if reading is None or (word == "--" and i + 1 < len(argv)):
            if word not in COMMANDS:
                raise UsageError(f"argument command: {_invalid(word, COMMANDS)}")
            return _parse_options(word, argv[i + 1 :], extras)
        if reading[0] is None:
            extras.append(word)
        else:
            _check_help(*reading)
            return _help, None
    raise UsageError("the following arguments are required: command")


def _parse_options(command: str, words: list[str], extras: list[str]):
    handler, _, options = COMMANDS[command]
    values = {name: default for name, (_, default, _) in options.items()}
    readings = _read(words, (*_HELP, *options))
    i = 0
    while i < len(words):
        word, reading = words[i], readings[i]
        i += 1
        if reading is None or reading[0] is None:
            extras.append(word)
            continue
        name, value = reading
        if name in _HELP:
            _check_help(name, value)
            return _help, command
        kind = options[name][0]
        if kind is bool:
            if value is not None:
                raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
            value = True
        else:
            if value is None:
                if i == len(words) or readings[i] is not None:
                    raise UsageError(f"argument {name}: expected one argument")
                value, i = words[i], i + 1
            value = _convert(name, kind, value)
        values[name] = value
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    return handler, SimpleNamespace(**{name[2:].replace("-", "_"): v for name, v in values.items()})


def _read(words: list[str], names) -> list:
    """Each word's reading against the option ``names``, all before any is
    used: None for a value, else ``(option, its "=" value or None)``, option
    None if no name matches. After a ``--`` every word is a value."""
    readings = []
    for i, word in enumerate(words):
        if word == "--":
            return readings + [(None, None)] + [None] * (len(words) - i - 1)
        readings.append(_reading(word, names))
    return readings


def _reading(word: str, names):
    if word[:1] != "-" or word == "-":
        return None
    if word in names:
        return word, None
    head, eq, value = word.partition("=")
    if eq and head in names:
        return head, value
    if word[1] == "-":
        # A unique prefix of a long option names it.
        found = [(name, value if eq else None) for name in names if name.startswith(head)]
    else:
        found = [(name, word[2:]) for name in names if name == word[:2]]
    if len(found) > 1:
        raise UsageError(f"ambiguous option: {word} could match {', '.join(n for n, _ in found)}")
    if found:
        return found[0]
    # A word that looks like a negative number (argparse's -\d+$ or -\d*\.\d+$,
    # whose $ also matches before a final newline) or holds a space is a value.
    whole, dot, fraction = word[1:].removesuffix("\n").partition(".")
    if dot:
        negative = fraction.isdecimal() and (not whole or whole.isdecimal())
    else:
        negative = whole.isdecimal()
    return None if negative or " " in word else (None, None)


def _check_help(name: str, value: str | None) -> None:
    if name == "-h" and value:
        # "-hh" is -h twice; other text after -h is refused.
        value = value.lstrip("h") or None
    if value is not None:
        raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")


def _convert(name: str, kind, value: str):
    if isinstance(kind, tuple):
        if value not in kind:
            raise UsageError(f"argument {name}: {_invalid(value, kind)}")
        return value
    try:
        return kind(value)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {kind.__name__} value: {value!r}") from None


def _invalid(value: str, choices) -> str:
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _help(command: str | None) -> int:
    """The usage line, then the module docstring and the commands, or one command's options."""
    if command is None:
        head = f"usage: stabdim <command> [options]\n\n{__doc__ or ''}\ncommands:\n"
        rows = [(name, line) for name, (_, line, _) in COMMANDS.items()]
    else:
        _, line, options = COMMANDS[command]
        head = f"usage: stabdim {command} [options]\n\n{line}\n\noptions:\n"
        rows = [("-h, --help", "show this help and exit")]
        for name, (kind, default, text) in options.items():
            if isinstance(kind, tuple):
                name += " {" + ",".join(kind) + "}"
            elif kind is not bool:
                name += " " + name[2:].upper().replace("-", "_")
            if default is not None and default is not False:
                text += f" (default: {default})"
            rows.append((name, text))
    width = max(len(left) for left, _ in rows) + 2
    sys.stdout.write(head + "".join(f"  {left:<{width}}{right}\n" for left, right in rows))
    return 0


# Each failure type's stderr label and exit code.
_FAILURES = {
    UsageError: ("usage error", 1),
    GraphParseError: ("parse error", 2),
    ConstraintError: ("constraint violation", 3),
    ConsistencyError: ("internal consistency failure", 4),
}


def run(argv=None) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        return handler(args)
    except tuple(_FAILURES) as exc:
        label, code = _FAILURES[type(exc)]
        _warn(f"{label}: {exc}")
        return code
    except MemoryError:
        pass  # warn below, once the failed call's frames are freed with its traceback
    _warn("constraint violation: out of memory")
    return 3


def _warn(line: str) -> None:
    """Write ``line`` to stderr and flush it. With fd 2 closed at start-up there
    is no stderr, and the line goes nowhere, not to stdout; a failed write is
    dropped, so the exit code stays the failure's own."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(line + "\n")
            sys.stderr.flush()
        except OSError:
            pass


def _observed() -> bool:
    """Whether a tracer, a profiler, a sys.monitoring tool (coverage, cProfile
    on Python 3.12+) or ``python -i`` expects the interpreter's normal exit."""
    if sys.gettrace() or sys.getprofile() or sys.flags.inspect:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    return monitoring is not None and any(map(monitoring.get_tool, range(6)))


def main(argv=None) -> None:
    """Run one subcommand, as the ``stabdim`` script and ``python -m stabdim.cli``
    do, and end the process with its exit code. Once stdout and stderr are
    flushed the process ends by ``os._exit``, skipping the interpreter's
    teardown, which no output waits for; ``atexit`` handlers do not run then.
    Under a tracer, profiler, monitoring tool or ``python -i`` it raises
    SystemExit instead, so their exit-time work still runs. In-process callers
    use ``run``, which returns the code."""
    if sys.stdout is None:
        # fd 1 was closed at start-up. Stand in a descriptor open for reading only:
        # a write to it fails with EBADF, as one to the closed fd would.
        sys.stdout = open(os.open(os.devnull, os.O_RDONLY), "w", encoding="utf-8")
    try:
        code = run(argv)
        sys.stdout.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader closed the pipe early: exit as cat does, 128 + SIGPIPE.
            code = 141
        else:
            # A full disk, a closed stdout or any other failed write or flush.
            _warn(f"output error: {exc.strerror or exc}")
            code = 74
        # Point fd 1 at devnull so the flush at a normal exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if not _observed():
        os._exit(code)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
