"""Seeded inputs of the three workloads.

Every value the library or the CLI receives is made here from the workload
seed; the same seed gives the same inputs, bit for bit. The generators return
plain data (strings, floats, tuples), so `test_perfbench.py` can compare two
generations directly.

Pools are cycled by the op loop: op i uses pool entry i % len(pool). Each
pool is balanced (every liquid or pair appears equally often over the pool)
and then shuffled. The resonance pools are about as long as a run, so a
run's tail latency rests on many distinct inputs rather than a few.
"""

from __future__ import annotations

import itertools

import numpy as np

#: The packaged reference liquids, by file stem.
PACKAGED = ("water", "eg", "ipa", "dispersionless")
#: Liquids with loss, the only ones a pump-probe map can be made of.
LOSSY = ("water", "eg", "ipa")

#: find_nu0 bracket and tolerance of the resonance `nu0` op and the CLI `nu0`.
NU0_BRACKET = (0.1, 3.0)
NU0_TOL = 1e-9
#: Half width (THz) and size of the line-shape grid around nu0. An even size
#: keeps nu0 itself off the grid.
LINESHAPE_HALF_WIDTH = 0.2
LINESHAPE_POINTS = 200

#: One-term Debye pairs of the matching tests (`a/b` and `A/B`). Each term's
#: strength and relaxation time is scaled by a factor drawn from
#: [1 - MATCH_PERTURBATION, 1 + MATCH_PERTURBATION]; eps_inf stays 2.2, since
#: pulling the two eps_inf apart moves some A/B roots to 3-7 THz.
MATCH_PAIRS = {
    "a/b": ((2.2, ((1.0, 0.3),)), (2.2, ((25.0, 0.3),))),
    "A/B": ((2.2, ((0.4, 0.15),)), (2.2, ((1.6, 1.0),))),
}
MATCH_PERTURBATION = 0.1
#: The perturbed A/B roots reach ~2.4 THz, past the (0.2, 2.0) test bracket,
#: so the match op searches up to 3 THz and every pair has a root.
MATCH_BRACKET = (0.2, 3.0)

#: Pump-probe grid: delays as `synth --map` lays them out, probe columns
#: over the CLI's 6.4 ps window.
PUMP_PROBE_DELAYS = 4096
PUMP_PROBE_DTAU = 0.1
PUMP_PROBE_COLUMNS = 128
PUMP_PROBE_DT = 0.05

#: Map size of the CLI `synth --map` call (its default).
CLI_DELAYS = 1024

#: Number of entries of each pool and of per-op draws.
POOL = 256
PUMP_PROBE_POOL = 12
CLI_SESSIONS = 16
PER_OP_DRAWS = 8192


def packaged_text(data_dir, stem: str) -> str:
    return (data_dir / f"{stem}.liq").read_text(encoding="utf-8")


def twin_text(stem: str, model, rng, eval_neat) -> str:
    """A tabulated `.liq` twin of a reference model, sampled at seeded points.

    The table spans NU0_BRACKET exactly, so find_nu0's scan stays inside it.
    """
    n = int(rng.integers(64, 257))
    lo, hi = NU0_BRACKET
    inner = np.unique(rng.uniform(lo, hi, n - 2))
    nu = np.concatenate(([lo], inner[(inner > lo) & (inner < hi)], [hi]))
    eps = np.asarray(eval_neat(model, nu))
    rows = [f"{f!r}, {e.real!r}, {e.imag!r}" for f, e in zip(nu.tolist(), eps.tolist())]
    head = [
        f"# tabulated twin of {stem}.liq, {nu.size} seeded samples",
        f"name = {stem} table",
        "type = table",
        "columns = nu_THz, eps_real, eps_imag",
    ]
    return "\n".join(head + rows) + "\n"


def _balanced(rng, items, n):
    reps = -(-n // len(items))
    out = list(items) * reps
    rng.shuffle(out)
    return out[:n]


def _perturbed(rng, spec):
    eps_inf, terms = spec
    f = lambda x: float(x * rng.uniform(1 - MATCH_PERTURBATION, 1 + MATCH_PERTURBATION))
    return (eps_inf, tuple((f(d), f(t)) for d, t in terms))


def resonance_inputs(seed: int, data_dir, load_model, eval_neat) -> dict:
    """Liquid texts (packaged plus tabulated twins), nu0 ops and match pairs."""
    rng = np.random.default_rng([seed, 1])
    texts = {stem: packaged_text(data_dir, stem) for stem in PACKAGED}
    for stem in PACKAGED:
        texts[f"{stem}~table"] = twin_text(stem, load_model(texts[stem]), rng, eval_neat)
    keys = list(texts)
    nu0_ops = [
        (key, float(rng.uniform(15.0, 100.0))) for key in _balanced(rng, keys, POOL)
    ]
    match_ops = []
    for label in _balanced(rng, list(MATCH_PAIRS), POOL):
        a, b = MATCH_PAIRS[label]
        match_ops.append((label, _perturbed(rng, a), _perturbed(rng, b)))
    return {"texts": texts, "nu0_ops": nu0_ops, "match_ops": match_ops}


def pump_probe_inputs(seed: int, data_dir) -> dict:
    """Liquid texts, (liquid, ce) pool, and per-op SNR and noise seeds."""
    rng = np.random.default_rng([seed, 2])
    texts = {stem: packaged_text(data_dir, stem) for stem in LOSSY}
    pool = [
        (stem, float(rng.uniform(15.0, 60.0)))
        for stem in _balanced(rng, LOSSY, PUMP_PROBE_POOL)
    ]
    snr_db = rng.uniform(10.0, 40.0, PER_OP_DRAWS).tolist()
    noise_seeds = rng.integers(0, 2**32, PER_OP_DRAWS).tolist()
    return {"texts": texts, "pool": pool, "snr_db": snr_db, "noise_seeds": noise_seeds}


def cli_inputs(seed: int) -> list[dict]:
    """CLI sessions: nu0, ce-for-nu0, match --profile, synth --map, extract.

    The match pairs run through every ordered pair of packaged liquids, with
    `ipa.liq water.liq` (documented to exit 3) placed in session 0, which
    the traced run replays. A pair led by the lossless liquid exits 3 within
    a few ms of starting its scan, the others after ~0.1 s; every block of
    four sessions holds one of the fast ones, so runs of different length
    see the same mix.
    """
    rng = np.random.default_rng([seed, 3])
    pairs = list(itertools.permutations(PACKAGED, 2))
    fast = [p for p in pairs if p[0] == "dispersionless"]
    slow = [p for p in pairs if p[0] != "dispersionless" and p != ("ipa", "water")]
    rng.shuffle(fast)
    rng.shuffle(slow)
    slow.insert(0, ("ipa", "water"))
    pairs = []
    for k, f in enumerate(fast):
        pairs += slow[3 * k : 3 * k + 2] + [f] + slow[3 * k + 2 : 3 * k + 3]
    nu0_liquids = _balanced(rng, PACKAGED, CLI_SESSIONS)
    ce_liquids = _balanced(rng, PACKAGED, CLI_SESSIONS)
    synth_liquids = _balanced(rng, LOSSY, CLI_SESSIONS)
    sessions = []
    for i in range(CLI_SESSIONS):
        sessions.append(
            {
                "nu0": (nu0_liquids[i], float(rng.uniform(15.0, 100.0))),
                "ce_for_nu0": (ce_liquids[i], float(rng.uniform(0.4, 1.2))),
                "match": pairs[i % len(pairs)],
                "synth": (
                    synth_liquids[i],
                    float(rng.uniform(15.0, 60.0)),
                    float(rng.uniform(10.0, 40.0)),
                    int(rng.integers(0, 2**31)),
                ),
            }
        )
    return sessions
