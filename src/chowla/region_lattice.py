"""Convex regions and lattice cosets with exact row descriptions.

Regions are boxes, discs, and convex polygons with rational parameters, so
membership and row extents are exact; no floating point decides a boundary.
A lattice coset is kept in Hermite normal form, as a RowForm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .cubic_form import parse_rational


def _crt(r1: int, m1: int, r2: int, m2: int) -> Optional[tuple[int, int]]:
    """Solve x = r1 (m1), x = r2 (m2); returns (residue, lcm) or None."""
    g = math.gcd(m1, m2)
    if (r2 - r1) % g:
        return None
    l = m1 // g * m2
    k = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g) if m2 != g else 0
    return ((r1 + m1 * k) % l, l)


@dataclass(frozen=True)
class RowForm:
    """Canonical row description of a lattice coset.

    The set is {(x, y) : y = y0 (mod c), x = x0 + b*t (mod a)} with
    t = (y - y0) / c.  Index in Z^2 is a * c.
    """

    c: int
    y0: int
    a: int
    b: int
    x0: int

    @property
    def index(self) -> int:
        return self.a * self.c

    @staticmethod
    def span(gens, offset=(0, 0)) -> "RowForm":
        """Hermite normal form of offset + the lattice the generators span.

        Extended gcds over the y-components give the lattice vector w with
        the least positive y, c; the x-components left once each generator
        is reduced by w generate the lattice's row y = 0, a*Z.
        """
        wx, wy = 0, 0
        for gx, gy in gens:
            g, s, t = _extgcd(wy, gy)
            wx, wy = s * wx + t * gx, g
        a = 0
        if wy:
            for gx, gy in gens:
                a = math.gcd(a, gx - gy // wy * wx)
        if a == 0:
            raise ValueError("coset basis is singular")
        ox, oy = offset
        y0 = oy % wy
        x0 = (ox - (oy - y0) // wy * wx) % a
        return RowForm(c=wy, y0=y0, a=a, b=wx % a, x0=x0)

    def contains(self, x: int, y: int) -> bool:
        sol = self.row_solution(y)
        return sol is not None and (x - sol[0]) % sol[1] == 0

    def row_solution(self, y: int) -> Optional[tuple[int, int]]:
        """For row y: the x-residue class (residue, modulus), or None."""
        if (y - self.y0) % self.c:
            return None
        t = (y - self.y0) // self.c
        return ((self.x0 + self.b * t) % self.a, self.a)

    def intersect(self, other: "RowForm") -> Optional["RowForm"]:
        """Exact intersection; None when the cosets are disjoint."""
        ycrt = _crt(self.y0, self.c, other.y0, other.c)
        if ycrt is None:
            return None
        yy0, lcm_y = ycrt
        # x-congruences along y = yy0 + lcm_y * T:
        #   x = P1 + Q1*T (mod a1),  x = P2 + Q2*T (mod a2)
        p1 = self.x0 + self.b * ((yy0 - self.y0) // self.c)
        q1 = self.b * (lcm_y // self.c)
        p2 = other.x0 + other.b * ((yy0 - other.y0) // other.c)
        q2 = other.b * (lcm_y // other.c)
        g = math.gcd(self.a, other.a)
        aa = (q1 - q2) % g if g > 1 else 0
        bb = (p2 - p1) % g if g > 1 else 0
        d = math.gcd(aa, g)
        if bb % d:
            return None
        step = g // d
        t0 = (bb // d * pow(aa // d, -1, step)) % step if step > 1 else 0
        lcm_a = self.a // g * other.a

        def xval(tv: int) -> int:
            # CRT of the two x-congruences at parameter T = tv
            r = _crt((p1 + q1 * tv) % self.a, self.a, (p2 + q2 * tv) % other.a, other.a)
            assert r is not None
            return r[0]

        x_at_0 = xval(t0)
        x_at_1 = xval(t0 + step)
        new_c = lcm_y * step
        return RowForm(
            c=new_c,
            y0=(yy0 + lcm_y * t0) % new_c,
            a=lcm_a,
            b=(x_at_1 - x_at_0) % lcm_a,
            x0=x_at_0 % lcm_a,
        )


# the coset of every point of Z^2
WHOLE_PLANE = RowForm(c=1, y0=0, a=1, b=0, x0=0)


def _extgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class ConvexRegion:
    """Closed convex region: 'box', 'disc', or convex 'poly', rational data."""

    kind: str
    data: tuple

    @staticmethod
    def box(x0, x1, y0, y1) -> "ConvexRegion":
        x0, x1, y0, y1 = map(Fraction, (x0, x1, y0, y1))
        if x0 > x1 or y0 > y1:
            raise ValueError("box corners out of order")
        return ConvexRegion("box", (x0, x1, y0, y1))

    @staticmethod
    def disc(cx, cy, r) -> "ConvexRegion":
        cx, cy, r = map(Fraction, (cx, cy, r))
        if r <= 0:
            raise ValueError("disc radius must be positive")
        return ConvexRegion("disc", (cx, cy, r))

    @staticmethod
    def polygon(vertices) -> "ConvexRegion":
        verts = tuple((Fraction(x), Fraction(y)) for x, y in vertices)
        if len(verts) < 3:
            raise ValueError("polygon needs at least three vertices")
        crosses = []
        n = len(verts)
        for i in range(n):
            px, py = verts[i]
            qx, qy = verts[(i + 1) % n]
            rx, ry = verts[(i + 2) % n]
            crosses.append((qx - px) * (ry - py) - (qy - py) * (rx - px))
        if all(cr > 0 for cr in crosses):
            pass
        elif all(cr < 0 for cr in crosses):
            verts = tuple(reversed(verts))  # normalize to counterclockwise
        else:
            raise ValueError("vertices are not in strictly convex position")
        return ConvexRegion("poly", verts)

    def scale(self, t) -> "ConvexRegion":
        """Dilate all coordinates by t > 0 about the origin."""
        t = Fraction(t)
        if t <= 0:
            raise ValueError("scale factor must be positive")
        if self.kind == "poly":
            return ConvexRegion("poly", tuple((x * t, y * t) for x, y in self.data))
        return ConvexRegion(self.kind, tuple(v * t for v in self.data))

    def symmetric(self) -> bool:
        """Whether the region is closed under (x, y) -> (-x, -y), from its
        data exactly: a box with x0 = -x1 and y0 = -y1, a disc centred at 0,
        or a polygon whose vertex set is closed under negation."""
        if self.kind == "box":
            x0, x1, y0, y1 = self.data
            return x0 == -x1 and y0 == -y1
        if self.kind == "disc":
            return self.data[0] == self.data[1] == 0
        return set(self.data) == {(-x, -y) for x, y in self.data}

    @cached_property
    def _bounds(self) -> tuple[int, int, int, int]:
        """(xlo, xhi, ylo, yhi), the integer bounds of the region's bounding
        box; computed once, on first use."""
        if self.kind == "box":
            x0, x1, y0, y1 = self.data
        elif self.kind == "disc":
            cx, cy, r = self.data
            x0, x1, y0, y1 = cx - r, cx + r, cy - r, cy + r
        else:
            xs = [x for x, _ in self.data]
            ys = [y for _, y in self.data]
            x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        return math.ceil(x0), math.floor(x1), math.ceil(y0), math.floor(y1)

    def y_range(self) -> tuple[int, int]:
        return self._bounds[2:]

    def x_range(self) -> tuple[int, int]:
        return self._bounds[:2]

    @cached_property
    def _row_data(self) -> tuple[int, int, int, int]:
        """Integers that decide a row of a disc exactly: (q, A, B, R*R) for
        the common denominator q of its center (A/q, B/q) and radius R/q.
        Computed once, on first use."""
        cx, cy, r = self.data
        q = math.lcm(cx.denominator, cy.denominator, r.denominator)
        return q, int(cx * q), int(cy * q), int(r * q) ** 2

    def row_extent(self, y: int) -> Optional[tuple[int, int]]:
        """Integer x-range [xlo, xhi] of the row, or None if empty. Exact."""
        if self.kind == "box":
            lo, hi, ylo, yhi = self._bounds
            if not ylo <= y <= yhi:
                return None
        elif self.kind == "disc":
            q, A, B, RR = self._row_data
            t = RR - (q * y - B) ** 2
            if t < 0:
                return None
            s = math.isqrt(t)
            lo = -((s - A) // q)  # ceil((A - s) / q)
            hi = (A + s) // q
        else:
            lo_f: Optional[Fraction] = None
            hi_f: Optional[Fraction] = None
            verts = self.data
            for i in range(len(verts)):
                px, py = verts[i]
                qx, qy = verts[(i + 1) % len(verts)]
                # inside means (qx-px)(y-py) - (qy-py)(x-px) >= 0
                aco = py - qy
                bco = -(qx - px) * (y - py) - (qy - py) * px
                if aco == 0:
                    if bco > 0:
                        return None
                elif aco > 0:
                    cand = Fraction(bco, aco)
                    lo_f = cand if lo_f is None else max(lo_f, cand)
                else:
                    cand = Fraction(bco, aco)
                    hi_f = cand if hi_f is None else min(hi_f, cand)
            lo = math.ceil(lo_f) if lo_f is not None else None
            hi = math.floor(hi_f) if hi_f is not None else None
            if lo is None or hi is None:
                raise ValueError("polygon is unbounded?")  # cannot happen if convex
        if lo > hi:
            return None
        return lo, hi

    def contains(self, x, y) -> bool:
        if self.kind == "box":
            x0, x1, y0, y1 = self.data
            return x0 <= x <= x1 and y0 <= y <= y1
        if self.kind == "disc":
            cx, cy, r = self.data
            return (x - cx) ** 2 + (y - cy) ** 2 <= r * r
        verts = self.data
        for i in range(len(verts)):
            px, py = verts[i]
            qx, qy = verts[(i + 1) % len(verts)]
            if (qx - px) * (y - py) - (qy - py) * (x - px) < 0:
                return False
        return True


def parse_region(text: str) -> ConvexRegion:
    """Region literals: box:x0,x1,y0,y1  disc:cx,cy,r  poly:x1,y1;x2,y2;..."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind == "box":
        vals = [parse_rational(t) for t in rest.split(",")]
        if len(vals) != 4:
            raise ValueError(f"box wants four numbers: {text!r}")
        return ConvexRegion.box(*vals)
    if kind == "disc":
        vals = [parse_rational(t) for t in rest.split(",")]
        if len(vals) != 3:
            raise ValueError(f"disc wants three numbers: {text!r}")
        return ConvexRegion.disc(*vals)
    if kind == "poly":
        pts = []
        for chunk in rest.split(";"):
            xy = chunk.split(",")
            if len(xy) != 2:
                raise ValueError(f"bad polygon vertex in {text!r}")
            pts.append((parse_rational(xy[0]), parse_rational(xy[1])))
        return ConvexRegion.polygon(pts)
    raise ValueError(f"unknown region kind {kind!r}")


def parse_coset(text: str) -> RowForm:
    """Coset literal: coset:b11,b21,b12,b22;ox,oy (basis columns, then offset)."""
    kind, _, rest = text.partition(":")
    if kind.strip() != "coset":
        raise ValueError(f"unknown coset literal {text!r}")
    mat, _, off = rest.partition(";")
    ents = [int(t) for t in mat.split(",")]
    if len(ents) != 4:
        raise ValueError(f"coset wants four basis entries: {text!r}")
    b11, b21, b12, b22 = ents
    if off.strip():
        ox, oy = (int(t) for t in off.split(","))
    else:
        ox, oy = 0, 0
    return RowForm.span([(b11, b21), (b12, b22)], (ox, oy))
