#!/usr/bin/env python3
"""Prints self and inclusive shares from a sigprof.c sample file.

    report.py PROFILE [--top N]

Each sample is a PC and the return addresses above it. Every address is
mapped to its object file through the recorded executable mappings and
named with addr2line: the outermost function of its inline chain, that
is the symbol the code was compiled into, so a call inlined into
Engine::drain counts as drain. An address addr2line cannot name is shown
as [object]. Return addresses are looked up one byte back, inside their
call instruction. A function's self share counts the samples whose PC
lies in it; its inclusive share counts the samples whose chain holds it
at least once (recursion counts once).
"""

import argparse
import collections
import os
import subprocess
import sys


def load(path):
    maps, samples = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("M "):
                fields = line.split()
                if len(fields) >= 7 and "x" in fields[2]:
                    lo, hi = (int(x, 16) for x in fields[1].split("-"))
                    maps.append((lo, hi, int(fields[3], 16), fields[6]))
            elif line.startswith("S"):
                samples.append([int(x, 16) for x in line.split()[1:]])
    return maps, samples


def symbolize(maps, addrs):
    """Maps each address to a function name."""
    by_object = collections.defaultdict(dict)  # object -> {offset: addr}
    names = {}
    for a in addrs:
        for lo, hi, off, obj in maps:
            if lo <= a < hi:
                by_object[obj][a - lo + off] = a
                break
        else:
            names[a] = "[unknown]"
    for obj, offsets in by_object.items():
        label = "[%s]" % os.path.basename(obj)
        keys = sorted(offsets)
        # -a opens each address's group with the address itself; -i lists
        # the inline chain innermost first, as function / file:line pairs.
        outermost = []
        if os.path.isfile(obj):
            done = subprocess.run(
                ["addr2line", "-a", "-i", "-f", "-C", "-e", obj],
                input="".join("%x\n" % k for k in keys),
                capture_output=True, text=True, check=False)
            pos = 0  # line within the current address's group
            for line in done.stdout.splitlines():
                if line.startswith("0x"):
                    outermost.append("??")
                    pos = 0
                elif outermost and pos % 2 == 1:
                    outermost[-1] = line
                pos += 1
        for i, k in enumerate(keys):
            name = outermost[i] if i < len(outermost) else "??"
            names[offsets[k]] = label if name == "??" else name
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()
    maps, samples = load(args.profile)
    if not samples:
        sys.exit("report.py: %s holds no samples" % args.profile)
    # The PC as is; return addresses one byte back, into the call.
    chains = [[s[0]] + [a - 1 for a in s[1:]] for s in samples]
    names = symbolize(maps, {a for c in chains for a in c})
    self_n, incl_n = collections.Counter(), collections.Counter()
    for chain in chains:
        self_n[names[chain[0]]] += 1
        incl_n.update({names[a] for a in chain})
    total = len(chains)
    print("%d samples" % total)
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print("\n%-9s  function" % title)
        for name, n in counts.most_common(args.top):
            print("%8.2f%%  %s" % (100.0 * n / total, name))


if __name__ == "__main__":
    main()
