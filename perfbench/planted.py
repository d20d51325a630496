"""Planted edge streams for the benchmark, built from the bundled demo generator.

The demo's 30-vertex block (rotating split-stars, two communities, a
rotating clique) is repeated as `copies` vertex-offset blocks, and its
36-step sequence is repeated until `steps` steps exist. Each copy and each
36-step block draws its community noise from its own derived seed. Both
repetitions keep the planted periods intact: 36 is a multiple of the star
period (3), the clique rotation (4) and the community interval (12), and a
new block restarts the clique rotation exactly on a ground-truth change
point, so the change points stay every 4 steps.

Writes the stream and sidecars under the names `scripts/make_demo.py`
uses: `stream.csv`, `attributes.csv` and `changepoints.txt`.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import make_demo  # noqa: E402  (reused, not edited)

BLOCK = make_demo.N
PERIOD = make_demo.STEPS


def planted_steps(seed: int, copies: int, steps: int) -> list[set[tuple[int, int]]]:
    """Edge set per step over `copies * 30` vertices."""
    out: list[set[tuple[int, int]]] = [set() for _ in range(steps)]
    blocks = -(-steps // PERIOD)
    for copy in range(copies):
        offset = copy * BLOCK
        for block in range(blocks):
            sub_seed = (seed * 1_000_003 + copy * 101 + block) % 2**32
            for t, edges in enumerate(make_demo.demo_edges(sub_seed)):
                step = block * PERIOD + t
                if step >= steps:
                    break
                out[step] |= {(u + offset, v + offset) for u, v in edges}
    return out


def write_planted(
    out_dir: Path,
    seed: int,
    *,
    copies: int,
    steps: int,
    resolution: int = 1,
    contacts: tuple[int, int] = (1, 1),
) -> int:
    """Write the stream and its sidecars; returns the number of raw events.

    Every edge present at step t is emitted as a number of contacts drawn
    uniformly from `contacts` (inclusive), at raw times inside
    [t * resolution, (t + 1) * resolution). Rows are sorted by time.
    """
    rng = np.random.default_rng([seed, copies, steps, resolution])
    lo, hi = contacts
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    ts: list[np.ndarray] = []
    for t, edges in enumerate(planted_steps(seed, copies, steps)):
        pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
        reps = rng.integers(lo, hi + 1, size=len(pairs))
        us.append(np.repeat(pairs[:, 0], reps))
        vs.append(np.repeat(pairs[:, 1], reps))
        ts.append(t * resolution + rng.integers(0, resolution, size=int(reps.sum())))
    u, v, t = (np.concatenate(x) for x in (us, vs, ts))
    order = np.argsort(t, kind="stable")
    # swap endpoints of every other row so the parser sees both orientations
    flip = rng.integers(0, 2, size=len(order)).astype(bool)
    a = np.where(flip, v, u)[order]
    b = np.where(flip, u, v)[order]
    lines = [f"v{x},v{y},{z}" for x, y, z in zip(a.tolist(), b.tolist(), t[order].tolist())]
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "stream.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    attr = ["vertex,community", "#types: categorical"]
    for copy in range(copies):
        for v_local in range(10, 22):
            attr.append(f"v{copy * BLOCK + v_local},{'a' if v_local < 16 else 'b'}")
    (out_dir / "attributes.csv").write_text("\n".join(attr) + "\n", encoding="utf-8")

    cps = "\n".join(str(x) for x in range(5, steps + 1, 4)) + "\n"
    (out_dir / "changepoints.txt").write_text(cps, encoding="utf-8")
    return len(lines)
