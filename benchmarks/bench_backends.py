"""Compare the compiled kernels against the pure-Python twin.

Run from the repository root::

    python benchmarks/bench_backends.py [--repeat N]

Workloads mirror what the verification suites spend their time on:
staged degree searches, minimal-dominating-set scans and irredundance
scans, the scans also on two sparse graphs with n = 22. Both backends
produce identical outputs (asserted here), so the only difference is
speed.
"""

import argparse
import time

from domindex.backend import available_backends
from domindex.verify import random_graph


def _closed(n, p, seed):
    return list(random_graph(n, p, seed).closed_adj)


def workloads():
    from domindex import FamilySpec, generate

    pet = list(generate(FamilySpec("petersen")).graph.closed_adj)
    her = list(generate(FamilySpec("herschel")).graph.closed_adj)
    r16 = _closed(16, 0.25, 7)
    r18 = _closed(18, 0.3, 11)
    r20 = _closed(20, 0.25, 13)
    c22 = list(generate(FamilySpec("cycle", (22,))).graph.closed_adj)
    g22 = _closed(22, 0.1, 17)

    def degrees(kern, closed):
        n = len(closed)
        gamma = kern.solve_dd(closed, -1, 1, n)[0]
        return [kern.solve_dd(closed, v, gamma, n) for v in range(n)]

    return [
        ("degree profile, petersen x20", lambda k: [degrees(k, pet) for _ in range(20)]),
        ("degree profile, herschel x20", lambda k: [degrees(k, her) for _ in range(20)]),
        ("degree profile, random n=16", lambda k: degrees(k, r16)),
        ("minimal-ds scan, random n=18", lambda k: k.scan_minimal_ds(r18)),
        ("irredundance scan, random n=18", lambda k: k.scan_irredundance(r18)),
        ("minimal-ds scan, random n=20", lambda k: k.scan_minimal_ds(r20)),
        ("irredundance scan, cycle:22", lambda k: k.scan_irredundance(c22)),
        ("minimal-ds scan, G(22, 0.1)", lambda k: k.scan_minimal_ds(g22)),
    ]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3, help="best-of timing repeats")
    args = ap.parse_args()

    backends = available_backends()
    if "compiled" not in backends:
        print("compiled kernels not built; showing pure-Python timings only")
    names = list(backends)

    rows = []
    for label, fn in workloads():
        times = {}
        results = {}
        for name in names:
            kern = backends[name]
            best = float("inf")
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                results[name] = fn(kern)
                best = min(best, time.perf_counter() - t0)
            times[name] = best
        if len(names) == 2:
            assert results[names[0]] == results[names[1]], label
        rows.append((label, times))

    width = max(len(r[0]) for r in rows)
    header = f"{'workload':<{width}}  " + "  ".join(f"{n:>12}" for n in names)
    if len(names) == 2:
        header += f"  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for label, times in rows:
        line = f"{label:<{width}}  " + "  ".join(f"{times[n] * 1e3:10.3f}ms" for n in names)
        if len(names) == 2:
            line += f"  {times['python'] / times['compiled']:7.1f}x"
        print(line)


if __name__ == "__main__":
    main()
