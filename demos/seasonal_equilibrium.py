"""Walk through the core capability: from move shares to seasonal cycles.

The bundled survey table gives the share of annual household moves in each
calendar month, before and after 2021. Hazards proportional to those
shares, pinned to the observed annual move rate, drive a twelve-month
search-and-matching housing market. Solving the periodic equilibrium for
each period shows the market's hot season following the movers: when the
mobility distribution shifts toward spring, so do prices and transactions.
"""

from thickmarket.core import MONTH_NAMES
from thickmarket.fixtures import shares_fixture
from thickmarket.workflows import compare_calibrations, solve_calibration


def main():
    sides = {}
    for side in ("pre", "post"):
        shares, eta = shares_fixture(f"sipp-{side}")
        solution, u, params = solve_calibration(shares, eta)
        sides[side] = (eta, u, params.hazards.hazard.values, solution)
    report = compare_calibrations(sides["pre"][3], sides["post"][3])

    for side, (eta, u, hazard, solution) in sides.items():
        P, Q = report[side]["P"], report[side]["Q"]
        print(f"\n{side}-2021: annual move rate {eta:.1%}, "
              f"service flow u = {u:.5f}, "
              f"fixed-point residual {solution.final_residual:.1e}")
        print(f"{'month':>6} {'hazard':>8} {'P dev %':>8} {'Q dev %':>8}")
        for m, name in enumerate(MONTH_NAMES):
            print(f"{name:>6} {hazard[m]:8.4f} "
                  f"{P['deviation'][m]:8.2f} {Q['deviation'][m]:8.1f}")
        print(f"price peak: {P['peak_month_name']}, "
              f"volume peak: {Q['peak_month_name']}")

    print("\nShift in season means (post minus pre, percentage points):")
    for key in ("P", "Q"):
        change = report["delta"][key]["season_mean_changes"]
        print(f"  {key}: spring {change['spring']:+6.2f}, "
              f"summer {change['summer']:+6.2f}")
    print("\nMobility moved toward spring, and the equilibrium price and")
    print("volume cycles moved with it: the thick season arrives earlier.")


if __name__ == "__main__":
    main()
