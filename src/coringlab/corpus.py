"""The shipped example instances: everything the verification suite runs on,
built programmatically so sessions and tests share one source of truth.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import (
    AlgebraMorphism,
    field_algebra,
    group_algebra_cyclic,
    identity_morphism,
    matrix_algebra,
    truncated_poly_algebra,
    unit_inclusion,
)
from .bimodule import LinearMap, Matrix, space
from .coring import (
    coalgebra_over_field,
    flip_map,
    grouplike_coalgebra,
    grouplike_primitive_coalgebra,
    trivial_coring,
)
from .cowreath import (
    Cowreath,
    coring_distributive_cowreath,
    entwining_lift_cowreath,
    flip_cowreath,
    unit_cowreath,
)
from .entwine import (
    EntwiningStructure,
    doi_koppinen_entwining,
    doi_koppinen_self,
    flip_entwining,
)
from .exactla import GF, QQ
from .ore import SkewPolyData
from .wreath import ModuleTwist, RingExtension, twisted_tensor_product


class Corpus:
    """Lazily built standard instances, shared across the test suite."""

    # -- algebras -----------------------------------------------------------

    @cached_property
    def k(self):
        return field_algebra(QQ)

    @cached_property
    def z2(self):
        return group_algebra_cyclic(QQ, 2, name="kZ2")

    @cached_property
    def z3(self):
        return group_algebra_cyclic(QQ, 3, name="kZ3")

    # -- corings ------------------------------------------------------------

    @cached_property
    def triv_z2(self):
        return trivial_coring(self.z2)

    @cached_property
    def c2(self):
        return grouplike_coalgebra(QQ, 2, name="C2")

    @cached_property
    def c3(self):
        return grouplike_coalgebra(QQ, 3, name="C3")

    @cached_property
    def d2(self):
        return grouplike_coalgebra(QQ, 2, name="D2")

    @cached_property
    def gp(self):
        return grouplike_primitive_coalgebra(QQ)

    @cached_property
    def broken_coalgebra(self):
        """Two grouplikes but the counit kills the second one."""
        one = QQ.one()
        return coalgebra_over_field(
            QQ, 2, [{0: one}, {3: one}], [one, QQ.zero()],
            labels=["1", "g"], name="brokenC")

    # -- entwinings ---------------------------------------------------------

    @cached_property
    def flip_entwining(self):
        return flip_entwining(self.z2, self.c2)

    @cached_property
    def dk_entwining(self):
        return doi_koppinen_entwining(
            doi_koppinen_self(self.z2, self.c2), name="dk")

    @cached_property
    def broken_entwining(self):
        base = self.flip_entwining
        mat = base.psi.matrix + Matrix.from_entries(
            QQ, 4, 4, {(3, 3): QQ.one()})
        psi = LinearMap(base.psi.domain, base.psi.codomain, mat, "bad")
        return EntwiningStructure(self.z2, self.c2, psi, name="broken")

    # -- cowreaths ----------------------------------------------------------

    @cached_property
    def flip_cw(self):
        return flip_cowreath(self.c2, self.d2)

    @cached_property
    def flip_cw3(self):
        return flip_cowreath(self.c2, self.c3)

    @cached_property
    def unit_cw(self):
        return unit_cowreath(self.triv_z2)

    @cached_property
    def dl_cw(self):
        dm = flip_map(self.c2.carrier, self.d2.carrier)
        return coring_distributive_cowreath(self.c2, self.d2, dm)

    @cached_property
    def lifted_flip_cw(self):
        return entwining_lift_cowreath(self.flip_entwining, self.flip_cw)

    @cached_property
    def lifted_dk_cw(self):
        return entwining_lift_cowreath(self.dk_entwining, self.flip_cw)

    @cached_property
    def broken_cw_delta(self):
        w = self.flip_cw
        return Cowreath(w.object, w.xi,
                        LinearMap.zero(w.delta.domain, w.delta.codomain),
                        name="broken-delta")

    @cached_property
    def broken_cw_xi(self):
        w = self.flip_cw
        return Cowreath(w.object, w.xi.scale(QQ.from_int(2)), w.delta,
                        name="broken-xi")

    # -- twisted tensor products ---------------------------------------------

    def _sign_flip_map(self, rext, text):
        tb, rb = text.t_bimodule, rext.t_bimodule
        ent = {}
        for i in range(2):
            for j in range(2):
                sign = QQ.from_int(-1 if (i == 1 and j == 1) else 1)
                ent[(j * 2 + i, i * 2 + j)] = sign
        return LinearMap(space(tb, rb).quotient, space(rb, tb).quotient,
                         Matrix.from_entries(QQ, 4, 4, ent), "signflip")

    @cached_property
    def sign_flip_ttp(self):
        """Graded flip on k[x]/(x^2) (x) k[y]/(y^2); anticommuting in odd
        degrees."""
        R = truncated_poly_algebra(QQ, 2, gen="x", name="R")
        T = truncated_poly_algebra(QQ, 2, gen="y", name="T")
        rext = RingExtension(self.k, R, unit_inclusion(self.k, R))
        text = RingExtension(self.k, T, unit_inclusion(self.k, T))
        rmap = self._sign_flip_map(rext, text)
        return (rext, text, rmap) + twisted_tensor_product(rext, text, rmap)

    @cached_property
    def plain_flip_ttp(self):
        R = truncated_poly_algebra(QQ, 2, gen="x", name="R")
        T = truncated_poly_algebra(QQ, 2, gen="y", name="T")
        rext = RingExtension(self.k, R, unit_inclusion(self.k, R))
        text = RingExtension(self.k, T, unit_inclusion(self.k, T))
        fl = flip_map(text.t_bimodule, rext.t_bimodule)
        rmap = LinearMap(fl.domain, fl.codomain, fl.matrix, "flip")
        return (rext, text, rmap) + twisted_tensor_product(rext, text, rmap)

    def broken_ttp_map(self):
        rext, text, rmap = self.sign_flip_ttp[:3]
        bad = rmap.matrix + Matrix.from_entries(QQ, 4, 4, {(2, 2): QQ.one()})
        return rext, text, LinearMap(rmap.domain, rmap.codomain, bad, "bad")

    @cached_property
    def module_twist_self(self):
        """X = R with the twisted tensor twist itself and multiplication."""
        rext, text, rmap, rw, lw, prod_ext, alg_rep, eta_rep = self.sign_flip_ttp
        return ModuleTwist(rw, rext, rext.t_bimodule, rext.mult_map(),
                           rmap, name="X=R")

    # -- skew polynomial data -------------------------------------------------

    @cached_property
    def ore_commutative(self):
        B = truncated_poly_algebra(QQ, 3)
        return SkewPolyData(B, identity_morphism(B),
                            Matrix.zeros(QQ, 3, 3), name="commutative")

    @cached_property
    def ore_quantum_plane(self):
        B = truncated_poly_algebra(QQ, 3, gen="y")
        sigma = AlgebraMorphism(
            B, B,
            Matrix.from_entries(QQ, 3, 3, {
                (0, 0): QQ.one(), (1, 1): QQ.from_int(2),
                (2, 2): QQ.from_int(4)}),
            name="q2")
        return SkewPolyData(B, sigma, Matrix.zeros(QQ, 3, 3),
                            name="quantum-plane")

    @cached_property
    def ore_weyl(self):
        """The derivation case needs characteristic 3 for x^3 = 0 to be
        respected by d/dx."""
        f3 = GF(3)
        B = truncated_poly_algebra(f3, 3)
        delta = Matrix.from_entries(f3, 3, 3, {(0, 1): 1, (1, 2): 2})
        return SkewPolyData(B, identity_morphism(B), delta, name="weyl")

    @cached_property
    def ore_weyl_target(self):
        """Endomorphisms of the length-3 truncated polynomial ring over
        GF(3), the matrix realization hosting the rewrite relation."""
        f3 = GF(3)
        S = matrix_algebra(f3, 3)
        phi = Matrix.from_entries(f3, 9, 3, {
            (0, 0): 1, (4, 0): 1, (8, 0): 1,
            (3, 1): 1, (7, 1): 1,
            (6, 2): 1,
        })
        z = {1: 1, 5: 2}
        return S, phi, z

    @cached_property
    def ore_broken(self):
        """d/dx over the rationals: the Leibniz rule fails on x . x^2."""
        B = truncated_poly_algebra(QQ, 3)
        delta = Matrix.from_entries(QQ, 3, 3, {
            (0, 1): QQ.one(), (1, 2): QQ.from_int(2)})
        return SkewPolyData(B, identity_morphism(B), delta,
                            name="broken-derivation")


CORPUS = Corpus()


def corpus_sessions() -> dict:
    """Raw session dictionaries for the shipped example files."""
    from .coring import comodule_over_itself
    from .session_write import SessionStore

    out = {}

    store = SessionStore.empty(QQ)
    store.algebra_name(CORPUS.z2)
    store.algebra_name(CORPUS.z3)
    out["z2_group_algebra.json"] = store.raw

    store = SessionStore.empty(QQ)
    store.add_coring("C2", CORPUS.c2)
    store.add_coring("C3", CORPUS.c3)
    store.add_coring("trivial", CORPUS.triv_z2)
    store.add_coring("broken", CORPUS.broken_coalgebra)
    store.add_comodule("C2.self", comodule_over_itself(CORPUS.c2))
    out["grouplike_coalgebras.json"] = store.raw

    store = SessionStore.empty(QQ)
    store.add("entwinings", "flip", CORPUS.flip_entwining)
    store.add("entwinings", "dk", CORPUS.dk_entwining)
    store.add("entwinings", "broken", CORPUS.broken_entwining)
    out["entwinings.json"] = store.raw

    store = SessionStore.empty(QQ)
    store.add_cowreath("flip", CORPUS.flip_cw)
    store.add_cowreath("unit", CORPUS.unit_cw)
    store.add_cowreath("dl", CORPUS.dl_cw[0])
    store.add_cowreath("broken-delta", CORPUS.broken_cw_delta)
    store.add("entwinings", "flip-ent", CORPUS.flip_entwining)
    out["cowreaths.json"] = store.raw

    store = SessionStore.empty(QQ)
    rext, text, rmap, rw, lw, prod_ext, alg_rep, eta_rep = CORPUS.sign_flip_ttp
    store.add("ttps", "signflip", (rext, text, rmap))
    store.add("wreaths", "signflip.wreath", rw)
    store.add("twistings", "X=R", CORPUS.module_twist_self)
    store.add("ttps", "broken", CORPUS.broken_ttp_map())
    out["sign_flip_ttp.json"] = store.raw

    store = SessionStore.empty(QQ)
    store.add("skewpoly", "commutative", CORPUS.ore_commutative)
    store.add("skewpoly", "quantum-plane", CORPUS.ore_quantum_plane)
    store.add("skewpoly", "broken-derivation", CORPUS.ore_broken)
    out["ore_rational.json"] = store.raw

    store = SessionStore.empty(GF(3))
    store.add("skewpoly", "weyl", CORPUS.ore_weyl)
    out["ore_gf3.json"] = store.raw
    return out
