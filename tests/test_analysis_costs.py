"""Formula-vs-measurement cross-validation of the Table 1 cost model.

Every exact closed-form entry must equal the instrumented counts of an
actual protocol run; bound entries must dominate the measurements.
"""

import pytest

from repro.analysis.costs import EVENTS, conceptual_cost
from repro.analysis.table1 import render_table1, table1_rows
from repro.gcs.messages import ViewEvent
from repro.protocols import available, get_protocol
from repro.protocols.loopback import build_group

SIZES = (4, 7, 11, 16)


def _measure(protocol_cls, event, n, m=4, p=3):
    loop = build_group(protocol_cls, n, prefix=f"{event.value}{n}-")
    if event is ViewEvent.JOIN:
        return loop.join("x")
    if event is ViewEvent.LEAVE:
        return loop.leave(f"{event.value}{n}-{n // 2}")
    if event is ViewEvent.MERGE:
        return loop.mass_join([f"z{i}" for i in range(m)])
    return loop.mass_leave([f"{event.value}{n}-{i}" for i in range(1, p + 1)])


@pytest.mark.parametrize("protocol", available())
@pytest.mark.parametrize("event", EVENTS)
@pytest.mark.parametrize("n", SIZES)
def test_formula_matches_or_bounds_measurement(protocol, event, n):
    m, p = 4, min(3, n - 2)
    stats = _measure(get_protocol(protocol), event, n, m=m, p=p)
    sponsor = None
    if protocol == "STR" and event in (ViewEvent.LEAVE, ViewEvent.PARTITION):
        # Leaving m{n//2} (leave) or m1..mp (partition) fixes the sponsor.
        sponsor = n // 2 if event is ViewEvent.LEAVE else 1
    cost = conceptual_cost(protocol, event, n=n, m=m, p=p,
                           str_sponsor_position=sponsor)
    measured = {
        "rounds": stats.rounds,
        "messages": stats.total_messages,
        "unicasts": stats.unicasts,
        "multicasts": stats.broadcasts,
        "serial_exponentiations": stats.max_exponentiations(),
        "total_exponentiations": stats.exponentiations(),
    }
    formula = {
        "rounds": cost.rounds,
        "messages": cost.messages,
        "unicasts": cost.unicasts,
        "multicasts": cost.multicasts,
        "serial_exponentiations": cost.serial_exponentiations,
        "total_exponentiations": cost.total_exponentiations,
    }
    if cost.exact:
        assert measured == formula, f"{protocol} {event.value} n={n}"
    else:
        for key in measured:
            assert measured[key] <= formula[key], (
                f"{protocol} {event.value} n={n}: {key} "
                f"measured {measured[key]} > bound {formula[key]}"
            )


class TestValidation:
    def test_unknown_protocol(self):
        with pytest.raises(KeyError):
            conceptual_cost("NOPE", ViewEvent.JOIN, n=5)

    def test_tiny_group_rejected(self):
        with pytest.raises(ValueError):
            conceptual_cost("BD", ViewEvent.JOIN, n=1)

    def test_no_survivors_rejected(self):
        with pytest.raises(ValueError):
            conceptual_cost("BD", ViewEvent.PARTITION, n=4, p=4)
        with pytest.raises(ValueError):
            conceptual_cost("BD", ViewEvent.PARTITION, n=4, p=3)
        with pytest.raises(ValueError):
            conceptual_cost("GDH", ViewEvent.LEAVE, n=2)


class TestTable1Rendering:
    def test_symbolic_grid_has_twenty_rows(self):
        rows = table1_rows()
        assert len(rows) == 20  # 5 protocols x 4 events

    def test_symbolic_entries_match_paper_claims(self):
        rows = {(prot, ev): cells for prot, ev, cells in table1_rows()}
        assert rows[("GDH", "Join")]["rounds"] == "4"
        assert rows[("GDH", "Merge")]["rounds"] == "m+3"
        assert rows[("BD", "Join")]["exponentiations"] == "3"
        assert rows[("TGDH", "Leave")]["messages"] == "1"
        assert rows[("STR", "Join")]["rounds"] == "2"
        assert rows[("CKD", "Join")]["rounds"] == "3"

    def test_evaluated_grid(self):
        rows = {(prot, ev): cells for prot, ev, cells in table1_rows(n=10)}
        assert rows[("GDH", "Join")]["messages"] == "13"  # n+3
        assert rows[("BD", "Join")]["messages"] == "22"  # 2(n+1)

    def test_render_contains_all_protocols(self):
        text = render_table1()
        for protocol in available():
            assert protocol in text
        evaluated = render_table1(n=12)
        assert "n=12" in evaluated
