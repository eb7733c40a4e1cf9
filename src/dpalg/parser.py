"""Expression language for DP terms.

Grammar (ASCII, whitespace-insensitive):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := INT | 'x' INT | 'g' INT '(' expr ')' | '(' expr ')'

'*' binds tighter than '+'/'-'; there is no exponent operator (powers are
expressed through g and multiplication).  Subtraction and the leading minus
desugar to multiplication by the integer literal -1.

AST nodes are tuples: ('int', n), ('gen', i) with i 1-based as written,
('gamma', n, sub), ('product', [factors]), ('sum', [terms]).

Parentheses and gN(...) may nest at most MAX_DEPTH levels deep; deeper input
is a ParseError rather than an exhausted interpreter stack.
"""

from .dpcore import divided_power, gamma_gen, zero

# Each level costs a few parser frames and one evaluator frame, so this stays
# well inside the interpreter's default recursion limit of 1000.
MAX_DEPTH = 200


class ParseError(Exception):
    def __init__(self, offset, message, expected=()):
        self.offset = offset
        self.message = message
        self.expected = tuple(expected)
        detail = f"at offset {offset}: {message}"
        if self.expected:
            detail += f" (expected {', '.join(self.expected)})"
        super().__init__(detail)


class EvalError(Exception):
    pass


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def enter(self, offset):
        """Open one nesting level at ``offset``, refusing to exceed MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(offset, f"nesting deeper than {MAX_DEPTH} levels")

    def skip_space(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char):
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def expect(self, char, expected):
        if not self.take(char):
            raise ParseError(self.pos, f"found {self.peek()!r}" if self.peek() else "unexpected end of input", expected)

    def integer(self):
        self.skip_space()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(start, "expected a number", ("INT",))
        return int(self.text[start : self.pos])


def parse(text, generator_count=None):
    """Parse an expression; raises ParseError with a byte offset on failure."""
    scanner = _Scanner(text)
    ast = _expr(scanner, generator_count)
    scanner.skip_space()
    if scanner.pos < len(scanner.text):
        raise ParseError(scanner.pos, f"unexpected {scanner.text[scanner.pos]!r}", ("+", "-", "*", "end of input"))
    return ast


def _expr(scanner, gens):
    terms = []
    if scanner.take("-"):
        terms.append(("product", [("int", -1), _term(scanner, gens)]))
    else:
        terms.append(_term(scanner, gens))
    while True:
        if scanner.take("+"):
            terms.append(_term(scanner, gens))
        elif scanner.take("-"):
            terms.append(("product", [("int", -1), _term(scanner, gens)]))
        else:
            break
    return terms[0] if len(terms) == 1 else ("sum", terms)


def _term(scanner, gens):
    factors = [_factor(scanner, gens)]
    while scanner.take("*"):
        factors.append(_factor(scanner, gens))
    return factors[0] if len(factors) == 1 else ("product", factors)


def _factor(scanner, gens):
    ch = scanner.peek()
    if ch == "(":
        scanner.enter(scanner.pos)
        scanner.take("(")
        inner = _expr(scanner, gens)
        scanner.expect(")", (")",))
        scanner.depth -= 1
        return inner
    if ch == "x":
        scanner.take("x")
        offset = scanner.pos
        index = scanner.integer()
        _check_generator(index, gens, offset)
        return ("gen", index)
    if ch == "g":
        scanner.take("g")
        offset = scanner.pos
        n = scanner.integer()
        if n < 1:
            raise ParseError(offset, f"divided power index must be >= 1, got g{n}")
        scanner.enter(scanner.pos)
        scanner.expect("(", ("(",))
        inner = _expr(scanner, gens)
        scanner.expect(")", (")",))
        scanner.depth -= 1
        return ("gamma", n, inner)
    if ch.isdigit():
        return ("int", scanner.integer())
    expected = ("INT", "xK", "gN(...)", "(")
    if ch:
        raise ParseError(scanner.pos, f"unexpected {ch!r}", expected)
    raise ParseError(scanner.pos, "unexpected end of input", expected)


def _check_generator(index, gens, offset):
    if index < 1 or (gens is not None and index > gens):
        bound = f"1..{gens}" if gens is not None else ">= 1"
        raise ParseError(offset, f"unknown generator x{index} (declared {bound})")


def evaluate(ast, spec):
    """Evaluate an AST to a normalized element of the given algebra."""
    kind = ast[0]
    if kind == "int":
        if ast[1] == 0:
            return zero(spec)
        raise EvalError(
            f"bare scalar {ast[1]}: the algebra is non-unital, every term needs a generator"
        )
    if kind == "gen":
        index = ast[1]
        if index > spec.generator_count:
            raise EvalError(f"unknown generator x{index} (algebra has {spec.generator_count})")
        return gamma_gen(spec, index - 1, 1)
    if kind == "gamma":
        return divided_power(ast[1], evaluate(ast[2], spec))
    if kind == "sum":
        total = zero(spec)
        for part in ast[1]:
            total = total + evaluate(part, spec)
        return total
    if kind == "product":
        scalar = 1
        element = None
        for part in ast[1]:
            if part[0] == "int":
                scalar *= part[1]
            else:
                value = evaluate(part, spec)
                element = value if element is None else element * value
        if element is None:
            if scalar == 0:
                return zero(spec)
            raise EvalError(
                f"bare scalar {scalar}: the algebra is non-unital, every term needs a generator"
            )
        return element.scale(scalar)
    raise EvalError(f"unknown AST node {kind!r}")


def parse_and_evaluate(text, spec):
    return evaluate(parse(text, spec.generator_count), spec)
