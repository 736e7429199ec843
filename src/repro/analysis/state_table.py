"""Figure 8: session state/traffic reduction through indirect RTT estimation.

For the national hierarchy of Figure 7 the paper tabulates, per level:

* receivers per zone and zone counts,
* RTT entries each receiver must maintain,
* the ratio of scoped to non-scoped session traffic (traffic scales with
  ``Σ n_α²`` over the zones a receiver observes, against ``n²`` for the
  flat protocol),
* the corresponding state ratio.

``state_reduction_table`` reproduces every published row from the paper's
own formulas.  (The published suburb traffic numerator reads "35,5000",
which is inconsistent with the formula that generates the other three rows;
our value is the formula's 260,500 — noted in EXPERIMENTS.md.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.topology.national import NationalParams


@dataclass(frozen=True)
class StateTableRow:
    """One level of the Figure 8 table."""

    level: str
    receivers_per_zone: int
    n_zones: int
    n_receivers: int
    rtts_maintained: int
    scoped_traffic: int          # Σ n_α² over observable zones
    nonscoped_traffic: int       # n² for the flat protocol
    scoped_state: int            # == rtts_maintained
    nonscoped_state: int         # n (peers tracked by a flat receiver)


def state_reduction_table(params: NationalParams = NationalParams()) -> List[StateTableRow]:
    """Compute the Figure 8 table for a national hierarchy.

    Per-level peer counts (who a receiver at that level exchanges session
    messages with):

    * national: the ``regions`` region-ZCRs,
    * regional ZCR: the above + its ``cities_per_region`` city-ZCRs,
    * city ZCR: the above + its ``suburbs_per_city`` suburb-ZCRs,
    * suburb subscriber: the above + its ``subscribers_per_suburb`` peers.
    """
    n_other = params.n_session_members - 1  # peers a flat receiver tracks
    nonscoped_traffic = n_other * n_other

    regions = params.regions
    cities = params.cities_per_region
    suburbs = params.suburbs_per_city
    subs = params.subscribers_per_suburb

    national_rtts = regions
    regional_rtts = national_rtts + cities
    city_rtts = regional_rtts + suburbs
    suburb_rtts = city_rtts + subs

    national_traffic = regions ** 2
    regional_traffic = national_traffic + cities ** 2
    city_traffic = regional_traffic + suburbs ** 2
    suburb_traffic = city_traffic + subs ** 2

    return [
        StateTableRow(
            "National", 0, 1, 0,
            national_rtts, national_traffic, nonscoped_traffic,
            national_rtts, n_other,
        ),
        StateTableRow(
            "Regional", 1, regions, regions,
            regional_rtts, regional_traffic, nonscoped_traffic,
            regional_rtts, n_other,
        ),
        StateTableRow(
            "City", 1, regions * cities, regions * cities,
            city_rtts, city_traffic, nonscoped_traffic,
            city_rtts, n_other,
        ),
        StateTableRow(
            "Suburb", subs, regions * cities * suburbs, params.n_subscribers,
            suburb_rtts, suburb_traffic, nonscoped_traffic,
            suburb_rtts, n_other,
        ),
    ]
