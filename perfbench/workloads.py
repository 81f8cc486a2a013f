"""Seeded op list of the cli-probes workload.

The list is a pure function of the seed: the generator uses only
``random.Random(seed)`` and never calls into hardylab, so the inputs it
hands to the program are fixed before the program runs.

Discrete choices (commands, families, exponents, radius indices, ring
kernels and centres) follow one fixed design that every seed shares.  The
seed draws the continuous values inside it: coefficients, zeros, scales,
rotations, and binomial exponents jittered within fixed strata.  Every seed
therefore gives new inputs while a run's total work stays nearly the same
from seed to seed, which keeps the run-to-run spread of the metrics small.

The design keeps clear of inputs on which the program reports a failure
for a correct result, because a benchmark op must not fail: binomials near
the membership edge in `rate`, `rate` schedules that stop before j = 9, and
`lemma1` on a constant at q = 0 (see the comments at each).
"""

from __future__ import annotations

import cmath
import math
import random

PROBE_COMMANDS = ("mean", "deriv", "rate", "lemma1")
PROBE_FAMILIES = ("poly", "const", "blaschke", "rat", "binom")
PROBE_REPEATS = 24  # each (command, family) cell appears this often per list
PROBE_PS = (0.5, 1.0, 1.5, 2.0, 3.0)
PROBE_QS = (0.0, 0.5, 1.0, 2.0)
# Near the edge alpha p = q + 1 a binomial's (1-r) D(r) decays as
# (1-r)^(q + 1 - alpha p), too slowly for the rate probe to see it halve
# within its schedule, and the probe answers "inconsistent" for a member.
BINOM_MARGIN = 0.35
# radius index j: r = 1 - 2^-j (the package's schedules stop at j = 12)
PROBE_JS = {
    "mean": tuple(range(1, 13)),
    "deriv": tuple(range(1, 13)),
    # schedule 2..j; at p >= 2 and q > 0 the decay of (1-r) D(r) starts late,
    # and schedules that stop at j = 8 end before the probe can see it halve
    "rate": (9, 10),
    "lemma1": tuple(range(2, 7)),
}
LEMMA_EPS = "4..12"  # ring radii 2^-4 .. 2^-12
LEMMA_KERNELS = ("log-r", "log-unit", "one-minus-abs-sq")


def fmt_complex(z: complex) -> str:
    """`a+bi` text the package's parser reads back exactly."""
    z = complex(z)
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def poly_from_roots(roots: list[complex]) -> list[complex]:
    """Ascending coefficients of prod (z - a)."""
    coeffs = [1.0 + 0j]
    for a in roots:
        shifted = [0j] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= a * c
        coeffs = shifted
    return coeffs


def _strata(rng: random.Random, n: int, lo: float, hi: float, stride: int) -> list[float]:
    """n values in [lo, hi): item i sits in stratum (i * stride) mod n, jittered."""
    return [lo + (hi - lo) * ((i * stride) % n + rng.random()) / n for i in range(n)]


def _cycle(choices, n: int, shift: int = 0) -> list:
    """n items cycling through choices, each further round shifted by `shift`
    places, so cycles of equal length still pair every value with every other."""
    k = len(choices)
    return [choices[(i + (i // k) * shift) % k] for i in range(n)]


def _polar(rng: random.Random, modulus: float) -> complex:
    phi = rng.uniform(-math.pi, math.pi)
    return complex(round(modulus * math.cos(phi), 6), round(modulus * math.sin(phi), 6))


def _family(rng: random.Random, family: str, p: float, q: float, frac: float) -> dict:
    """A function description with what the oracles need to know about it."""
    if family == "poly":
        if rng.random() < 0.5:
            n = rng.randint(1, 3)
            return {"fn": "poly:" + ",".join(["0"] * n + ["1"]), "mono": n, "abs_c": 1.0,
                    "zeros": [0j] * n, "f0": 0j}
        roots = [_polar(rng, rng.uniform(0.2, 0.8)) for _ in range(rng.randint(1, 3))]
        coeffs = poly_from_roots(roots)
        return {"fn": "poly:" + ",".join(fmt_complex(c) for c in coeffs), "zeros": roots,
                "f0": coeffs[0]}
    if family == "const":
        c = complex(round(rng.uniform(0.3, 2.0), 4), round(rng.uniform(-1.0, 1.0), 4))
        return {"fn": "const:" + fmt_complex(c), "mono": 0, "abs_c": abs(c), "zeros": [],
                "f0": c}
    if family == "blaschke":
        zeros = [_polar(rng, rng.uniform(0.2, 0.8)) for _ in range(rng.randint(1, 2))]
        return {"fn": "blaschke:" + ",".join(fmt_complex(a) for a in zeros), "zeros": zeros,
                "f0": math.prod(zeros)}
    if family == "rat":
        num = poly_from_roots([_polar(rng, rng.uniform(0.2, 0.8))])
        den = poly_from_roots([_polar(rng, rng.uniform(1.3, 3.0))])
        return {
            "fn": "rat:" + ",".join(fmt_complex(c) for c in num) + "|"
            + ",".join(fmt_complex(c) for c in den),
            "zeros": [-num[0] / num[1]],
            "f0": num[0] / den[0],
        }
    # binomial members of (p, q) kept BINOM_MARGIN inside the edge,
    # alpha * p <= q + 1 - BINOM_MARGIN; frac places alpha in that range,
    # since alpha p sets the rim peak and so the op's cost
    alpha = round(0.2 + (min(1.2, (q + 1.0 - BINOM_MARGIN) / p) - 0.2) * frac, 4)
    return {"fn": f"binom:{alpha!r}", "zeros": [], "f0": 1.0 + 0j}


def _modify(rng: random.Random, f: dict) -> dict:
    """Sometimes apply `*scale` and `@rotation` to the description."""
    scale, rotation = 1.0 + 0j, 0.0
    if rng.random() < 1.0 / 3.0:
        scale = complex(round(rng.uniform(0.5, 2.0), 4), round(rng.uniform(-1.0, 1.0), 4))
    if rng.random() < 1.0 / 3.0:
        rotation = round(rng.uniform(-math.pi, math.pi), 4)
    fn = f["fn"]
    if scale != 1:
        fn += "*" + fmt_complex(scale)
    if rotation != 0.0:
        fn += f"@{rotation!r}"
    # zeros of c * f(e^{i phi} z) sit at e^{-i phi} a
    phase = cmath.exp(-1j * rotation)
    out = dict(f, fn=fn, zeros=[phase * a for a in f["zeros"]], f0=scale * f["f0"])
    if "abs_c" in out:
        out["abs_c"] = out["abs_c"] * abs(scale)
    return out


def _lemma_centre(rng: random.Random, f: dict, r: float, at_zero: bool) -> complex:
    """One of f's zeros clear of the ring schedule if asked for and any, else the origin."""
    eps_max = 2.0**-4
    usable = [a for a in f["zeros"] if a != 0 and 0.15 <= abs(a) and abs(a) + eps_max < r]
    return rng.choice(usable) if at_zero and usable else 0j


def _probe(rng: random.Random, command: str, family: str, p: float, q: float, j: int,
           kernel: str, at_zero: bool, frac: float) -> dict:
    f = _modify(rng, _family(rng, family, p, q, frac))
    argv = [command, "--fn", f["fn"], "--p", repr(p), "--q", repr(q)]
    oracle = None
    if command in ("mean", "deriv"):
        r = 1.0 - 2.0**-j
        argv += ["--r", repr(r)]
        if "mono" in f:
            oracle = {"kind": command, "n": f["mono"], "abs_c": f["abs_c"],
                      "p": p, "q": q, "r": r}
    elif command == "rate":
        argv += ["--r-schedule", f"2..{j}"]
    else:
        r = 1.0 - 2.0**-j
        z0 = _lemma_centre(rng, f, r, at_zero)
        if z0 == 0 and kernel == "one-minus-abs-sq":
            # Lemma 1 at the origin is a statement about the log kernels: the
            # smooth kernel has no point mass there, so its ring limit is 0,
            # not the 2 pi |f(0)|^p the probe targets.  It is probed at zeros.
            kernel = "log-unit"
        # `--z0=...` keeps argparse from reading a leading '-' as an option
        argv += ["--r", repr(r), "--z0=" + fmt_complex(z0), "--kernel", kernel,
                 "--eps-schedule", LEMMA_EPS]
        # the ring limit: 2 pi |f(0)|^p at the origin, 0 at a zero of f
        target = 2.0 * math.pi * abs(f["f0"]) ** p if z0 == 0 else 0.0
        oracle = {"kind": "lemma1", "target": target}
    return {"argv": argv, "oracle": oracle}


def cli_probe_ops(seed: int) -> list[dict]:
    """In-process `mean`, `deriv`, `rate` and `lemma1` calls over every family.

    Within each (command, family) cell the exponents, the radius index j,
    the ring kernel and the ring centre cycle through fixed lists.  j sets
    r = 1 - 2^-j for `mean`, `deriv` and `lemma1`, and the schedule 2..j for
    `rate`.
    """
    rng = random.Random(seed)
    ops = []
    for command in PROBE_COMMANDS:
        for family in PROBE_FAMILIES:
            qs = PROBE_QS
            if command == "lemma1" and family == "const":
                # A constant at q = 0 makes every ring value exact, so the
                # residual cannot halve and ring_limit_probe reports
                # passed=false for a correct limit.
                qs = tuple(q for q in PROBE_QS if q > 0)
            columns = zip(
                _cycle(PROBE_PS, PROBE_REPEATS),
                _cycle(qs, PROBE_REPEATS),
                _cycle(PROBE_JS[command], PROBE_REPEATS, shift=1),
                _cycle(LEMMA_KERNELS, PROBE_REPEATS, shift=1),
                _cycle((False, True), PROBE_REPEATS, shift=1),
                _strata(rng, PROBE_REPEATS, 0.0, 1.0, stride=5),
            )
            ops += [_probe(rng, command, family, *cols) for cols in columns]
    rng.shuffle(ops)
    return ops
