"""A fixed pure-Python reference kernel that sets the benchmark's unit of time.

The benchmark runs on shared machines whose speed drifts by up to 2x for
seconds to minutes at a time.  Each timed verify call is paired with one
run of this kernel just before it, and timed as a multiple of the kernel's
time.  Multiplying by ``REFERENCE_S`` converts that back to seconds on a
machine where the kernel takes 15 ms (its fast-state time on the 2-vCPU VM
where the baseline was measured).

The kernel builds and evaluates binary expression trees: object creation,
attribute access and recursive calls, like the interpreter-bound work in
dvbcalc.  It must never change: every recorded number is in its unit.
"""

REFERENCE_S = 0.015


class _Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op, left=None, right=None, value=0.0):
        self.op = op
        self.left = left
        self.right = right
        self.value = value


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("num", value=float(i % 7) + 0.5)
    return _Node("add" if i % 2 else "mul", _build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1))


def _evaluate(node: _Node) -> float:
    if node.op == "num":
        return node.value
    left, right = _evaluate(node.left), _evaluate(node.right)
    return left + right if node.op == "add" else left * right * 0.5


def run() -> float:
    """Build and evaluate 12 trees of depth 10 (about 25k nodes)."""
    return sum(_evaluate(_build(10, i)) for i in range(12))
