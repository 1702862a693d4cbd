#!/usr/bin/env python
"""Sharded serving: a multi-process fleet behind one front door.

`examples/serving_multitenant.py` runs everything in one process; this
example scales the same serving story across worker processes with
`repro.fleet`:

1. a `Fleet` of 2 shard workers, each owning a private `BankPool` and
   counting-engine stack, with models placed by accounted bank budget,
2. the front door's per-shard dispatcher threads coalescing a
   concurrent burst into per-shard `run_many()` waves (telemetry
   shows waves << queries),
3. bit-exact relocation: `move()` parks a model's counter image,
   ships it through shared memory, and unparks it on another shard,
4. fault tolerance: a crashed worker fails its queries with a typed
   error while the surviving shard keeps serving.

Run:  python examples/fleet_serving.py
"""

import numpy as np

from repro.fleet import Fleet, WorkerCrashedError


def make_model(seed, k=24, n=32):
    rng = np.random.default_rng(seed)
    return rng.integers(-1, 2, (k, n)).astype(np.int8)


def main():
    z_chat, z_code = make_model(1), make_model(2)
    rng = np.random.default_rng(3)

    with Fleet(n_shards=2, n_bits=2, pool_banks=32) as fleet:
        print("=" * 64)
        print("1. Placement: models land on separate shards by budget")
        print("=" * 64)
        fleet.register("chat", z_chat, kind="ternary")
        fleet.register("code", z_code, kind="ternary")
        print(f"chat -> shard {fleet.shard_of('chat')}, "
              f"code -> shard {fleet.shard_of('code')}")

        print()
        print("=" * 64)
        print("2. A concurrent burst coalesces into per-shard waves")
        print("=" * 64)
        xs = rng.integers(-8, 9, (16, 24))
        futures = [fleet.submit("chat" if i % 3 else "code", xs[i])
                   for i in range(16)]
        ys = [f.result().y for f in futures]
        exact = all(
            (y == xs[i] @ (z_chat if i % 3 else z_code).astype(np.int64)
             ).all() for i, y in enumerate(ys))
        summary = fleet.telemetry_summary()
        print(f"16 queries -> {summary.waves} waves, exact={exact}")
        print(f"p50 {summary.latency.p50_ns / 1e3:.1f} us, "
              f"p99 {summary.latency.p99_ns / 1e3:.1f} us")

        print()
        print("=" * 64)
        print("3. Bit-exact relocation between shards")
        print("=" * 64)
        src = fleet.shard_of("chat")
        dst = next(s for s in fleet.shards if s != src)
        x = rng.integers(-8, 9, 24)
        for hop in (dst, src):          # there and back again
            fleet.move("chat", hop)
            y = fleet.query("chat", x).y
            print(f"chat -> shard {hop}; post-move query "
                  f"exact={(y == x @ z_chat.astype(np.int64)).all()}")
        print(f"relocations: {fleet.stats.relocations}")

        print()
        print("=" * 64)
        print("4. A worker crash fails fast; the fleet keeps serving")
        print("=" * 64)
        victim = fleet.shard_of("code")
        fleet.crash_shard(victim)
        try:
            fleet.query("code", x)
        except WorkerCrashedError as exc:
            print(f"code query -> {type(exc).__name__}: {exc}")
        y = fleet.query("chat", x).y
        print(f"chat still serves on shard {fleet.shard_of('chat')}: "
              f"exact={(y == x @ z_chat.astype(np.int64)).all()}")


if __name__ == "__main__":
    main()
