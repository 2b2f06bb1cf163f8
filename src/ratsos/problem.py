"""Problem container plus the line-oriented problem-file format.

The file grammar (UTF-8, `#` starts a comment):

    name <string>
    vars x1 x2 ... xn
    ratio: ( <poly> ) / ( <poly> )        # one line per ratio, order significant
    constraint: <poly> >= 0 | <poly> == 0
    clique: i1 i2 ...                     # optional, 1-based, one line per ratio

Polynomial syntax supports + - * ^ with decimal literals; implicit
multiplication is rejected.  The serializer writes coefficients with 17
significant digits so parse(serialize(p)) reproduces p exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .poly import MAX_EXPONENT, Polynomial


@dataclass(frozen=True)
class Constraint:
    poly: Polynomial
    equality: bool


@dataclass
class SrfoProblem:
    """Sum-of-rational-functions instance: minimize sum p_i/q_i on K.

    `maximize` marks instances whose stated objective is a maximum; builders
    then negate the numerators internally and the reported bound is negated
    back, so `ratios` always holds the objective exactly as stated.
    """

    nvars: int
    ratios: list
    constraints: list = field(default_factory=list)
    cliques: list | None = None
    name: str = ""
    var_names: list | None = None
    maximize: bool = False
    known_optimum: float | None = None

    def __post_init__(self):
        if len(self.ratios) < 1:
            raise ValueError("at least one ratio is required")
        for p, q in self.ratios:
            if p.nvars != self.nvars or q.nvars != self.nvars:
                raise ValueError("ratio nvars mismatch")
        for con in self.constraints:
            if con.poly.nvars != self.nvars:
                raise ValueError("constraint nvars mismatch")
        if self.cliques is not None:
            if len(self.cliques) != len(self.ratios):
                raise ValueError(
                    f"{len(self.cliques)} cliques for {len(self.ratios)} ratios"
                )
            self.cliques = [tuple(sorted(set(c))) for c in self.cliques]
            covered = set()
            for c in self.cliques:
                if c and (c[0] < 0 or c[-1] >= self.nvars):
                    raise ValueError(f"clique index out of range: {c}")
                covered |= set(c)
            if covered != set(range(self.nvars)):
                raise ValueError("cliques do not cover all variables")
        if self.var_names is not None and len(self.var_names) != self.nvars:
            raise ValueError("var_names length mismatch")

    @property
    def num_ratios(self):
        return len(self.ratios)

    def names(self):
        if self.var_names is not None:
            return list(self.var_names)
        return [f"x{i + 1}" for i in range(self.nvars)]

    def objective_value(self, point):
        """Objective in the stated sense (max form for maximize problems)."""
        total = 0.0
        for p, q in self.ratios:
            total += p.evaluate(point) / q.evaluate(point)
        return total


def variable_bounds(prob):
    """Per-variable bounds b_v with x_v^2 <= b_v implied by the constraints.

    Recognizes diagonal-quadratic constraints c0 - sum a_v x_v^2 (>= 0 or
    == 0 with either sign) including plain boxes, and diagonal even-quartic
    wells c0 + sum (beta_v x_v^2 - alpha_v x_v^4); returns None where no
    bound is derivable.
    """
    bounds = [None] * prob.nvars
    for con in prob.constraints:
        pat = diag_quadratic_pattern(con.poly)
        if pat is not None:
            c0, coefs = pat
            if c0 <= 0.0:
                continue
            for v, a in coefs.items():
                b = c0 / a
                if bounds[v] is None or b < bounds[v]:
                    bounds[v] = b
            continue
        if con.equality:
            continue
        pat4 = _diag_even_quartic_bounds(con.poly)
        if pat4 is not None:
            for v, b in pat4.items():
                if bounds[v] is None or b < bounds[v]:
                    bounds[v] = b
    return bounds


def variable_scales(prob):
    """Per-variable half-widths sqrt(b_v) of the box `variable_bounds`
    derives, 1.0 where it derives none."""
    return np.array(
        [math.sqrt(b) if b is not None else 1.0 for b in variable_bounds(prob)]
    )


def _diag_even_quartic_bounds(poly):
    """Bounds implied by c0 + sum_v (beta_v t_v - alpha_v t_v^2) >= 0 with
    t_v = x_v^2 and every alpha_v > 0, for any sign of c0; None when the
    shape does not match, some direction is unbounded, or some bound is not
    positive (then the constraint admits no point, or only x_v = 0)."""
    c0 = 0.0
    alpha = {}
    beta = {}
    quartic = False
    for mono, coef in poly.terms.items():
        deg = sum(mono)
        nz = [(v, e) for v, e in enumerate(mono) if e]
        if deg == 0:
            c0 = coef
        elif len(nz) == 1 and nz[0][1] == 2:
            beta[nz[0][0]] = coef
        elif len(nz) == 1 and nz[0][1] == 4:
            if coef >= 0.0:
                return None
            alpha[nz[0][0]] = -coef
            quartic = True
        else:
            return None
    if not quartic:
        return None
    variables = set(alpha) | set(beta)
    peaks = {}
    for v in variables:
        a = alpha.get(v)
        b = beta.get(v, 0.0)
        if a is None:
            # unbounded linear growth in t_v unless it only decreases
            if b > 0.0:
                return None
            peaks[v] = 0.0
        else:
            peaks[v] = (b * b / (4.0 * a)) if b > 0.0 else 0.0
    out = {}
    for v in variables:
        a = alpha.get(v)
        if a is None:
            continue
        b = beta.get(v, 0.0)
        head = c0 + sum(p for u, p in peaks.items() if u != v)
        # largest t with -a t^2 + b t + head >= 0
        disc = b * b + 4.0 * a * head
        t = (b + math.sqrt(disc)) / (2.0 * a) if disc >= 0.0 else 0.0
        if t <= 0.0:
            return None
        out[v] = t
    return out


def diag_quadratic_pattern(poly):
    """Match c0 - sum_v a_v x_v^2 with a_v > 0; returns (c0, {v: a_v}) or None.

    Equalities stored with the opposite sign are normalized first.
    """
    for sign in (1.0, -1.0):
        c0 = 0.0
        coefs = {}
        ok = True
        for mono, coef in poly.terms.items():
            coef = sign * coef
            deg = sum(mono)
            if deg == 0:
                c0 = coef
            elif deg == 2 and max(mono) == 2:
                v = mono.index(2)
                if coef >= 0.0:
                    ok = False
                    break
                coefs[v] = -coef
            else:
                ok = False
                break
        if ok and coefs and c0 > 0.0:
            return c0, coefs
    return None


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*^]))"
)


class _PolyParser:
    """Recursive-descent parser for the polynomial sublanguage."""

    def __init__(self, text, line_no, col_offset, var_index):
        self.text = text
        self.line_no = line_no
        self.col_offset = col_offset
        self.var_index = var_index
        self.nvars = len(var_index)
        self.pos = 0
        self.tok = None
        self.tok_kind = None
        self.tok_col = 0
        self._advance()

    def _fail(self, message, col=None):
        raise ParseError(
            message,
            line=self.line_no,
            column=(self.tok_col if col is None else col) + self.col_offset + 1,
        )

    def _advance(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            self.tok, self.tok_kind, self.tok_col = None, "end", len(self.text)
            return
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:
            self.tok_col = self.pos
            self._fail(f"unexpected character {self.text[self.pos]!r}")
        self.tok_col = m.start(m.lastgroup)
        self.tok = m.group(m.lastgroup)
        self.tok_kind = m.lastgroup
        self.pos = m.end()

    def _expect_op(self, op):
        if self.tok_kind != "op" or self.tok != op:
            self._fail(f"expected {op!r}, found {self.tok!r}")
        self._advance()

    def parse_expression(self):
        poly = self._term_signed()
        while self.tok_kind == "op" and self.tok in "+-":
            op = self.tok
            self._advance()
            rhs = self._term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def _term_signed(self):
        sign = 1.0
        while self.tok_kind == "op" and self.tok in "+-":
            if self.tok == "-":
                sign = -sign
            self._advance()
        return self._term() * sign

    def _term(self):
        poly = self._factor()
        while self.tok_kind == "op" and self.tok == "*":
            self._advance()
            poly = poly * self._factor()
        return poly

    def _factor(self):
        base = self._atom()
        if self.tok_kind == "op" and self.tok in ("^", "**"):
            self._advance()
            if self.tok_kind != "num" or any(c in self.tok for c in ".eE"):
                self._fail("exponent must be a nonnegative integer")
            power = int(self.tok)
            if power > MAX_EXPONENT:
                self._fail(f"degree {power} exceeds the 16-bit limit")
            self._advance()
            return base ** power
        return base

    def _atom(self):
        if self.tok_kind == "num":
            value = float(self.tok)
            self._advance()
            if self.tok_kind in ("num", "name"):
                self._fail("implicit multiplication is not allowed; use '*'")
            return Polynomial.constant(self.nvars, value)
        if self.tok_kind == "name":
            name = self.tok
            if name not in self.var_index:
                self._fail(f"unknown variable {name!r}")
            self._advance()
            if self.tok_kind in ("num", "name"):
                self._fail("implicit multiplication is not allowed; use '*'")
            return Polynomial.variable(self.nvars, self.var_index[name])
        if self.tok_kind == "op" and self.tok == "(":
            self._advance()
            inner = self.parse_expression()
            self._expect_op(")")
            return inner
        self._fail(
            "expected a number, variable or '('"
            + ("" if self.tok is None else f", found {self.tok!r}")
        )

    def at_end(self):
        return self.tok_kind == "end"


def _strip_comment(line):
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse(text):
    """Parse a problem file into an SrfoProblem."""
    name = ""
    var_names = None
    var_index = {}
    ratios = []
    constraints = []
    cliques = []
    seen_vars = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        head, _, tail = line.partition(" ")
        if head == "name":
            name = tail.strip()
            continue
        if head == "vars":
            if seen_vars:
                raise ParseError("duplicate vars line", line=line_no)
            var_names = tail.split()
            if not var_names:
                raise ParseError("vars line declares no variables", line=line_no)
            for vn in var_names:
                if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", vn):
                    raise ParseError(f"invalid variable name {vn!r}", line=line_no)
                if vn in var_index:
                    raise ParseError(f"duplicate variable {vn!r}", line=line_no)
                var_index[vn] = len(var_index)
            seen_vars = True
            continue
        if head in ("ratio:", "constraint:", "clique:") and not seen_vars:
            raise ParseError("vars line must precede records", line=line_no)
        if head == "ratio:":
            offset = raw.index("ratio:") + len("ratio:")
            ratios.append(_parse_ratio(tail, line_no, offset, var_index))
            continue
        if head == "constraint:":
            offset = raw.index("constraint:") + len("constraint:")
            constraints.append(_parse_constraint(tail, line_no, offset, var_index))
            continue
        if head == "clique:":
            try:
                members = [int(t) for t in tail.split()]
            except ValueError:
                raise ParseError("clique indices must be integers", line=line_no)
            if any(i < 1 or i > len(var_index) for i in members):
                raise ParseError("clique index out of range", line=line_no)
            cliques.append(tuple(sorted(i - 1 for i in members)))
            continue
        raise ParseError(f"unrecognized record {head!r}", line=line_no)

    if not seen_vars:
        raise ParseError("missing vars line", line=1)
    if not ratios:
        raise ParseError("no ratio records", line=1)
    if cliques and len(cliques) != len(ratios):
        raise ParseError(
            f"{len(cliques)} clique lines for {len(ratios)} ratios", line=1
        )
    try:
        return SrfoProblem(
            nvars=len(var_index),
            ratios=ratios,
            constraints=constraints,
            cliques=cliques or None,
            name=name,
            var_names=var_names,
        )
    except ValueError as exc:
        raise ParseError(str(exc), line=1)


def _parse_ratio(tail, line_no, offset, var_index):
    # the ratio separator '/' is not a polynomial operator, so split the
    # record at the single top-level slash before parsing either side
    depth = 0
    split = -1
    for i, ch in enumerate(tail):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            split = i
            break
    if split < 0:
        raise ParseError(
            "ratio must be '( poly ) / ( poly )'", line=line_no, column=offset + 1
        )
    num = _parse_group(tail[:split], line_no, offset, var_index, "numerator")
    den = _parse_group(
        tail[split + 1:], line_no, offset + split + 1, var_index, "denominator"
    )
    if den.is_zero():
        raise ParseError(
            "denominator is zero", line=line_no, column=offset + split + 2
        )
    return (num, den)


def _parse_group(text, line_no, offset, var_index, what):
    parser = _PolyParser(text, line_no, offset, var_index)
    parser._expect_op("(")
    poly = parser.parse_expression()
    parser._expect_op(")")
    if not parser.at_end():
        parser._fail(f"trailing input after {what}")
    return poly


def _parse_constraint(tail, line_no, offset, var_index):
    m = re.search(r"(>=|==)", tail)
    if not m:
        raise ParseError(
            "constraint must end with '>= 0' or '== 0'",
            line=line_no,
            column=offset + len(tail),
        )
    lhs, op, rhs = tail[: m.start()], m.group(1), tail[m.end():]
    if rhs.strip() not in ("0", "0.0"):
        raise ParseError(
            "constraint right-hand side must be 0",
            line=line_no,
            column=offset + m.end() + 1,
        )
    parser = _PolyParser(lhs, line_no, offset, var_index)
    poly = parser.parse_expression()
    if not parser.at_end():
        parser._fail("trailing input before comparison")
    return Constraint(poly, equality=(op == "=="))


# ---------------------------------------------------------------------------
# serialization


def format_coefficient(value):
    return f"{value:.17g}"


def poly_to_str(poly, names):
    if poly.is_zero():
        return "0"
    parts = []
    for mono, coef in poly.sorted_terms():
        factors = []
        for v, e in enumerate(mono):
            if e == 1:
                factors.append(names[v])
            elif e > 1:
                factors.append(f"{names[v]}^{e}")
        mag = abs(coef)
        if factors and mag == 1.0:
            body = "*".join(factors)
        elif factors:
            body = format_coefficient(mag) + "*" + "*".join(factors)
        else:
            body = format_coefficient(mag)
        if not parts:
            parts.append(("-" if coef < 0 else "") + body)
        else:
            parts.append(("- " if coef < 0 else "+ ") + body)
    return " ".join(parts)


def serialize(prob):
    """Render a problem file with the ratios exactly as stored.

    The grammar has no objective-sense record; a maximize instance gets a
    comment reminding the user to solve with --maximize, which is where the
    sign handling lives.
    """
    names = prob.names()
    lines = []
    if prob.maximize:
        lines.append("# objective is a maximum: solve with --maximize")
    if prob.name:
        lines.append(f"name {prob.name}")
    lines.append("vars " + " ".join(names))
    for p, q in prob.ratios:
        lines.append(f"ratio: ( {poly_to_str(p, names)} ) / ( {poly_to_str(q, names)} )")
    for con in prob.constraints:
        op = "==" if con.equality else ">="
        lines.append(f"constraint: {poly_to_str(con.poly, names)} {op} 0")
    if prob.cliques is not None:
        for c in prob.cliques:
            lines.append("clique: " + " ".join(str(i + 1) for i in c))
    return "\n".join(lines) + "\n"
