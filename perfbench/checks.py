"""Independent checks of ncample outputs.

Each check is a pure function of an operation's input documents and its
report, and returns an error message or None.  None of them imports the
package under test: the integer matrix arithmetic is redone here, so a
check cannot share a defect with the code that produced the answer.  A
check accepts an honest ``Undetermined`` wherever it accepts a decisive
answer, so a stronger search never reads as a failure.
"""

from __future__ import annotations

import itertools
from math import gcd


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_pow(a, n):
    result = identity(len(a))
    while n:
        if n & 1:
            result = mat_mul(result, a)
        a = mat_mul(a, a)
        n >>= 1
    return result


def bimodules(doc):
    return [(list(b["divisor"]), [list(r) for r in b["matrix"]])
            for b in doc["bimodules"]]


class ClassTable:
    """class_at for one system, by direct orbit sums.

    The class at grade n is  sum_a M_1^{n_1} ... M_{a-1}^{n_{a-1}}
    (d_a + M_a d_a + ... + M_a^{n_a - 1} d_a); the per-bimodule powers and
    orbit sums are tabulated once up to the largest grade entry asked for.
    """

    def __init__(self, doc):
        self.bims = bimodules(doc)
        self.rho = len(self.bims[0][0])
        self.powers = [[identity(self.rho)] for _ in self.bims]
        self.sums = [[[0] * self.rho] for _ in self.bims]

    def _extend(self, a, n):
        div, mat = self.bims[a]
        powers, sums = self.powers[a], self.sums[a]
        while len(powers) <= n:
            k = len(powers) - 1
            sums.append([x + y for x, y in zip(sums[k], mat_vec(powers[k], div))])
            powers.append(mat_mul(powers[k], mat))

    def at(self, n):
        total = [0] * self.rho
        prefix = identity(self.rho)
        for a, n_a in enumerate(n):
            self._extend(a, n_a)
            part = mat_vec(prefix, self.sums[a][n_a])
            total = [x + y for x, y in zip(total, part)]
            prefix = mat_mul(prefix, self.powers[a][n_a])
        return total


def _pairing(row, vec):
    return sum(r * x for r, x in zip(row, vec))


def _grid_extent(s):
    # at most about 400 grades per certificate, never fewer than 2 per axis
    return min(9, max(2, int(400 ** (1 / s))))


def _lcm_of_cyclotomic_orders(rho):
    # every root of unity of degree <= rho has order d with phi(d) <= rho,
    # and phi(d) >= sqrt(d / 2) bounds d by 2 rho^2
    out = 1
    for d in range(1, 2 * rho * rho + 3):
        phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
        if phi <= rho:
            out = out * d // gcd(out, d)
    return out


def _is_quasi_unipotent(mat):
    """Some power M^L with L the lcm of the possible orders is unipotent."""
    rho = len(mat)
    shifted = mat_pow(mat, _lcm_of_cyclotomic_orders(rho))
    shifted = [[x - int(i == j) for j, x in enumerate(row)]
               for i, row in enumerate(shifted)]
    nil = mat_pow(shifted, rho)
    return all(x == 0 for row in nil for x in row)


def verdict_error(doc, code, payload, allowed=None):
    """Re-check a verdict report against the system it was computed for."""
    kind = payload.get("kind")
    if kind is None:
        return f"no verdict (exit {code}): {payload.get('error')}"
    if allowed is not None and kind not in allowed:
        return f"verdict {kind} where only {sorted(allowed)} can hold"
    if kind == "Undetermined":
        return None if code == 2 else f"Undetermined with exit {code}"
    if code != 0:
        return f"decisive verdict {kind} with exit {code}"
    cone = doc["ample_cone"]
    if kind == "NCAmple":
        table = ClassTable(doc)
        m0 = payload["m0"]
        span = range(_grid_extent(len(m0)))
        for off in itertools.product(span, repeat=len(m0)):
            n = [m + o for m, o in zip(m0, off)]
            cls = table.at(n)
            if not all(_pairing(row, cls) > 0 for row in cone):
                return f"NCAmple from {m0} but class {cls} at {n} is not ample"
        return None
    if kind == "EventualAmplenessFail":
        w = payload["witness"]
        if not all(v > 0 for v in w["direction"]):
            return f"witness direction {w['direction']} is not cofinal"
        table = ClassTable(doc)
        for t in range(w["threshold"], w["threshold"] + 9):
            n = [b + t * v for b, v in zip(w["base"], w["direction"])]
            if _pairing(w["functional"], table.at(n)) >= 0:
                return f"witness functional is not negative at {n}"
        return None
    if kind == "QuasiUnipotentFail":
        _, mat = bimodules(doc)[payload["fail_index"]]
        if _is_quasi_unipotent(mat):
            return f"action {payload['fail_index']} is quasi-unipotent"
        return None
    return f"unexpected verdict kind {kind}"


def gk_error(code, payload, expected):
    if code != 0:
        return f"gk exit {code}: {payload.get('error')}"
    if payload.get("gk") != expected:
        return f"gk {payload.get('gk')}, expected {expected}"
    return None


def _same_scheme(src, out):
    keys = ("rho", "dim", "ample_cone")
    return all(src[k] == out[k] for k in keys)


def dual_error(src, out):
    """The dual carries M^-1 and M^-1 d for every bimodule (M, d)."""
    if not _same_scheme(src, out):
        return "dual changed the scheme"
    pairs = list(zip(bimodules(src), bimodules(out)))
    if len(pairs) != len(src["bimodules"]) or len(pairs) != len(out["bimodules"]):
        return "dual changed the number of bimodules"
    for (div, mat), (ddiv, dmat) in pairs:
        if mat_mul(mat, dmat) != identity(len(mat)):
            return f"dual action {dmat} is not the inverse of {mat}"
        if mat_vec(dmat, div) != ddiv:
            return f"dual divisor {ddiv} is not M^-1 {div}"
    return None


def veronese_error(src, out, strides):
    """Stride n gives the orbit sum of length n and the action M^n."""
    if not _same_scheme(src, out) or len(out["bimodules"]) != len(strides):
        return "veronese changed the scheme or the number of bimodules"
    for (div, mat), (vdiv, vmat), n in zip(bimodules(src), bimodules(out), strides):
        orbit = [0] * len(div)
        for k in range(n):
            orbit = [x + y for x, y in zip(orbit, mat_vec(mat_pow(mat, k), div))]
        if vdiv != orbit or vmat != mat_pow(mat, n):
            return f"veronese stride {n} of {div} gave {vdiv}"
    return None


def rees_error(src, out):
    if not _same_scheme(src, out):
        return "rees changed the scheme"
    if bimodules(out) != bimodules(src) * 2:
        return "rees did not duplicate the bimodule"
    return None


def tensor_error(a, b, out):
    """Block-diagonal product on the direct-sum lattice."""
    ra, rb = a["rho"], b["rho"]
    if out["rho"] != ra + rb or out["dim"] != a["dim"] + b["dim"]:
        return "tensor has the wrong rank or dimension"
    cone = [row + [0] * rb for row in a["ample_cone"]] + \
        [[0] * ra + row for row in b["ample_cone"]]
    if out["ample_cone"] != cone:
        return "tensor cone is not the block product"
    want = []
    for div, mat in bimodules(a):
        want.append((div + [0] * rb,
                     [row + [0] * rb for row in mat] +
                     [[0] * ra + row for row in identity(rb)]))
    for div, mat in bimodules(b):
        want.append(([0] * ra + div,
                     [row + [0] * rb for row in identity(ra)] +
                     [[0] * ra + row for row in mat]))
    if bimodules(out) != want:
        return "tensor bimodules are not the block embeddings"
    return None


def interior_error(doc, code, payload):
    """validate on a nonempty cone returns a strictly interior point."""
    if code != 0:
        return f"validate exit {code}: {payload.get('error')}"
    point = payload["scheme"]["interior_point"]
    if not all(_pairing(row, point) > 0 for row in doc["ample_cone"]):
        return f"interior point {point} is not strictly inside the cone"
    return None


def empty_cone_error(code, payload):
    """validate on a cone holding a functional and its negative must fail."""
    text = str(payload.get("error", "")).lower()
    if code != 1 or not ("interior" in text or "empty" in text):
        return f"empty cone gave exit {code}: {payload}"
    return None
