"""A fixed task that measures the machine's speed, not the program's.

run.py times this script, run as its own interpreter with ``-I -S``, after
every job. It loads nothing of stabdim: its cost changes only with the
machine, the interpreter and how hard the host's other tenants press on the
CPU. The work is the kind the program does: dicts and sets keyed by ints,
bit masks, list sorting and string formatting, about 60 ms of it.
"""


def main():
    buckets = {}
    acc = 0
    for i in range(40000):
        key = (i * 2654435761) & 0x3FFF
        buckets.setdefault(key, []).append(i)
        acc ^= key << (i & 31)
    seen = set()
    for key, members in sorted(buckets.items(), key=lambda item: (len(item[1]), item[0])):
        mask = 0
        for member in members:
            mask |= 1 << (member & 63)
        seen.add(mask.bit_count() ^ key)
    text = "".join(f"e {k} {len(v)}\n" for k, v in buckets.items())
    return acc.bit_count() + len(seen) + len(text)


if __name__ == "__main__":
    main()
