"""Host-speed probe: a fixed pure-Python kernel timed in its own process.

The benchmark shares its host with other work that slows every process on
it by up to half again, in spells that last from seconds to minutes. The
probe runs between the benchmark's jobs, never alongside them, in a
process of its own, so the program's heap and caches cannot change its
time. The kernel does what the program does most: it builds dicts of
tuples and strings, sorts and joins.

Protocol: each line read on stdin runs the kernel once and prints its time
in seconds; end of input ends the process.
"""
import sys
import time


def kernel() -> int:
    table = {}
    for i in range(20000):
        table[f"k{i * 7919 % 20011}"] = (i, str(i), [i, i + 1])
    items = sorted(table.items(), key=lambda kv: (kv[1][1], kv[0]))
    return len("|".join(f"{k}:{v[0]}" for k, v in items))


def main() -> None:
    kernel()  # warm up
    for _line in sys.stdin:
        start = time.perf_counter()
        kernel()
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    main()
