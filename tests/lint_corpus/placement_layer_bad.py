# lint-fixture: expect=layer-violation module=repro.placement.badimport
from repro.experiments.figures import figure


def run():
    return figure("19")
