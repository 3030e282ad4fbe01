import pytest
from hypothesis import settings

from vitbench import tensor as T

# property tests draw the same examples on every run and every interpreter
# (derandomize also turns off the example database), with no per-example
# deadline to flake on a slow machine and a bounded example count
settings.register_profile("vitbench", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("vitbench")

# one verdict line per acceptance criterion, filled in by test_acceptance.py
# and echoed after the run (survives pytest's output capture)
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def backward_grad_dtypes(loss, tape) -> set:
    """Run ``backward(loss, tape)`` and return the dtypes of every gradient
    the tape's entries hand back, intermediates included (a leaf's ``+=``
    would hide an upcast in its own buffer)."""
    seen = set()
    for entry in tape._entries:
        def recording(g, fn=entry.backward_fn):
            grads = fn(g)
            seen.update(x.dtype for _, x in grads if x is not None)
            return grads
        entry.backward_fn = recording
    T.backward(loss, tape)
    return seen


@pytest.fixture(autouse=True, scope="session")
def strict_mode():
    # finiteness checking on for the whole suite
    T.set_strict(True)
    yield
    T.set_strict(False)
