# lint-fixture: expect=clean module=repro.network.goodimport
from typing import TYPE_CHECKING

from repro.model.events import SimpleEvent

if TYPE_CHECKING:
    from repro.experiments.runner import RunResult  # upward but typing-only


def lazy(event: SimpleEvent):
    from repro.experiments.runner import run_program  # lazy upward: sanctioned

    return run_program, event
