"""Arithmetic in the real quadratic ring Z[sqrt(2)].

Elements are y + x*sqrt(2) with integer x, y.  Norm N = y^2 - 2x^2,
trace 2y, conjugate y - x*sqrt(2).  Units are generated by -1 and the
fundamental unit 1 + sqrt(2); negative powers exist exactly for units
(|N| = 1).
"""


def _coerce(other):
    if isinstance(other, QuadInt):
        return other
    if isinstance(other, int):
        return QuadInt(other, 0)
    return None


class QuadInt:
    __slots__ = ("y", "x")

    def __init__(self, y, x):
        self.y = int(y)
        self.x = int(x)

    def __repr__(self):
        return "QuadInt(%d, %d)" % (self.y, self.x)

    def __str__(self):
        if self.x == 0:
            return str(self.y)
        s = "%d√2" % self.x if abs(self.x) != 1 else ("√2" if self.x == 1 else "-√2")
        if self.y == 0:
            return s
        return "%d%s%s" % (self.y, "+" if self.x > 0 else "", s)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.y == other.y and self.x == other.x

    def __hash__(self):
        return hash((self.y, self.x))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QuadInt(self.y + other.y, self.x + other.x)

    __radd__ = __add__

    def __neg__(self):
        return QuadInt(-self.y, -self.x)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QuadInt(self.y - other.y, self.x - other.x)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QuadInt(
            self.y * other.y + 2 * self.x * other.x,
            self.y * other.x + self.x * other.y,
        )

    __rmul__ = __mul__

    def conj(self):
        return QuadInt(self.y, -self.x)

    def norm(self):
        return self.y * self.y - 2 * self.x * self.x

    def trace(self):
        return 2 * self.y

    def inverse(self):
        n = self.norm()
        if n == 1:
            return self.conj()
        if n == -1:
            return -self.conj()
        raise ZeroDivisionError("only units (norm ±1) are invertible in Z[√2]")

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer exponent required")
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = QuadInt(1, 0)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


FUNDAMENTAL_UNIT = QuadInt(1, 1)          # 1 + √2, norm -1
PELL_UNIT = QuadInt(3, 2)                 # 3 + 2√2 = (1+√2)^2, norm 1
