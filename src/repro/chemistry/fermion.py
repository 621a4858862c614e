"""Fermionic operators in second quantisation.

A :class:`FermionOperator` is a complex-weighted sum of products of
creation (``a†_p``) and annihilation (``a_p``) operators, stored as a
mapping from an ordered tuple of ``(mode, is_creation)`` pairs to a
coefficient.  Only the functionality needed to build UCCSD generators is
implemented: linear combination, scalar multiplication, operator products,
and Hermitian conjugation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

Term = Tuple[Tuple[int, bool], ...]


class FermionOperator:
    """A weighted sum of products of fermionic ladder operators."""

    def __init__(self, terms: Dict[Term, complex] | None = None):
        self.terms: Dict[Term, complex] = dict(terms or {})

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls) -> "FermionOperator":
        return cls({(): 1.0})

    @classmethod
    def creation(cls, mode: int) -> "FermionOperator":
        """``a†_mode``."""
        return cls({((mode, True),): 1.0})

    @classmethod
    def annihilation(cls, mode: int) -> "FermionOperator":
        """``a_mode``."""
        return cls({((mode, False),): 1.0})

    @classmethod
    def from_term(cls, term: Iterable[Tuple[int, bool]], coefficient: complex = 1.0) -> "FermionOperator":
        return cls({tuple(term): complex(coefficient)})

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        result = dict(self.terms)
        for term, coeff in other.terms.items():
            result[term] = result.get(term, 0.0) + coeff
        return FermionOperator(result)

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, FermionOperator):
            result: Dict[Term, complex] = {}
            for term_a, coeff_a in self.terms.items():
                for term_b, coeff_b in other.terms.items():
                    key = term_a + term_b
                    result[key] = result.get(key, 0.0) + coeff_a * coeff_b
            return FermionOperator(result)
        return FermionOperator({term: coeff * other for term, coeff in self.terms.items()})

    __rmul__ = __mul__

    def dagger(self) -> "FermionOperator":
        """Hermitian conjugate: reverse each product and flip dagger flags."""
        result: Dict[Term, complex] = {}
        for term, coeff in self.terms.items():
            conjugated = tuple((mode, not creation) for mode, creation in reversed(term))
            result[conjugated] = result.get(conjugated, 0.0) + coeff.conjugate()
        return FermionOperator(result)

    def simplify(self, atol: float = 1e-12) -> "FermionOperator":
        """Drop negligible coefficients."""
        return FermionOperator(
            {term: coeff for term, coeff in self.terms.items() if abs(coeff) > atol}
        )

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"FermionOperator(num_terms={len(self.terms)})"
