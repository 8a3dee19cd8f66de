#!/usr/bin/env python3
"""Symbolizes a sampler.c profile and prints three tables.

    python3 tools/cpu_profile/symbolize.py <profile file> [--top N]

The tables are: leaf functions (where the CPU was), inclusive functions
(share of samples with the function anywhere on the stack, counted once
per sample) and leaf source lines.  Addresses are mapped to their object
through the recorded /proc/self/maps and resolved with one addr2line call
per object.  Uses only the standard library and binutils' addr2line.
"""

import argparse
import bisect
import collections
import subprocess
import sys


def read_profile(path):
    maps, samples = [], []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.partition(" ")
            if kind == "map":
                fields = rest.split()
                if len(fields) < 6 or "x" not in fields[1]:
                    continue
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5]))
            elif kind == "sample":
                samples.append([int(x, 16) for x in rest.split()])
    maps.sort()
    return maps, samples


def locate(maps, starts, addr):
    """(object path, address to give addr2line) or None."""
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0 or addr >= maps[i][1]:
        return None
    lo, _, offset, obj = maps[i]
    # Position-independent objects: addr2line takes the file-relative
    # address (segment virtual address == file offset for text here).
    return obj, addr - lo + offset


def symbolize(queries):
    """{(obj, rel): (function, file:line)} via one addr2line per object."""
    names = {}
    by_obj = collections.defaultdict(set)
    for obj, rel in queries:
        by_obj[obj].add(rel)
    for obj, rels in by_obj.items():
        rels = sorted(rels)
        try:
            out = subprocess.run(
                ["addr2line", "-f", "-C", "-e", obj] + [hex(r) for r in rels],
                capture_output=True, text=True, check=False).stdout.splitlines()
        except OSError:
            out = []
        for k, rel in enumerate(rels):
            fn = out[2 * k] if 2 * k < len(out) else "??"
            src = out[2 * k + 1] if 2 * k + 1 < len(out) else "??:0"
            if fn == "??":
                fn = f"{obj.rsplit('/', 1)[-1]}+{rel:#x}"
            names[(obj, rel)] = (fn, src.split(" (discriminator")[0])
    return names


def table(title, counts, total, top):
    print(f"\n{title}  ({total} samples)")
    for name, n in counts.most_common(top):
        print(f"{100.0 * n / total:6.1f}%  {n:7d}  {name}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()
    maps, samples = read_profile(args.profile)
    if not samples:
        sys.exit("no samples in " + args.profile)
    starts = [m[0] for m in maps]
    # Return addresses point after the call: step back one byte so the
    # line is the call's own.
    stacks = [[locate(maps, starts, a if d == 0 else a - 1)
               for d, a in enumerate(s)] for s in samples]
    names = symbolize({f for s in stacks for f in s if f is not None})

    def fn(frame):
        return names[frame][0] if frame is not None else "[unknown]"

    leaf, inclusive, lines = (collections.Counter() for _ in range(3))
    for stack in stacks:
        leaf[fn(stack[0])] += 1
        lines[f"{names[stack[0]][1]}  {fn(stack[0])}"
              if stack[0] is not None else "[unknown]"] += 1
        for name in {fn(f) for f in stack}:
            inclusive[name] += 1
    total = len(samples)
    table("leaf functions", leaf, total, args.top)
    table("inclusive functions", inclusive, total, args.top)
    table("leaf source lines", lines, total, args.top)


if __name__ == "__main__":
    main()
