"""Python opcodes per contention exchange: a cost gate that host speed
cannot move.

``tests/test_call_budget.py`` counts frames, so it cannot see work done
inside one frame, and the medium does nearly all of an exchange's work in
its own. These tests count every opcode the run's Python frames execute
(``opcode_count.count_opcodes``, ``sys.settrace`` with
``f_trace_opcodes``) over a seeded 0.2 s run, after a warm-up run of the
same config so first-use work stays out, and divide by the run's
exchanges, successes plus collisions. Set-up is counted too, spread over
the run, so at N=120 an exchange carries more of it than at N=30.

History, opcodes per exchange on these 0.2 s runs (CPython 3.11), with
the same counts on seeded 1 s runs in brackets:

- With the medium as one process over one calendar, each fired event
  one trace line and an LTE-U node built with its duty-off: wifi-only
  N=30 503.3 (484.0), N=120 611.4 (537.4), lbt N=30 M=10 525.7 (489.6),
  N=120 M=10 661.1 (540.3), hap-sa N=30 M=10 552.7 (523.7), hap-uca
  N=30 M=10 548.1 (516.8).
- A lone-station success then took one branch before and after its
  exchange, a window booked its airtime and counts to the ledger once
  at its end, the engine looked kinds up under ``try``, the backoff
  replay split its words with a numpy view and an LTE-U burst summed a
  list: 463.3 (447.7), 554.5 (497.4), 484.6 (453.1), 593.9 (500.0),
  513.3 (491.0), 508.7 (484.2). The budgets below were set from these,
  about 1% above each.
- None of these lbt runs delivers an LTE-U burst: each node bursts once
  before its duty-off of M+N-1 bursts, and every first burst collides.
  A case that does, lbt N=30 M=10 with a duty-off of one burst over a
  seeded 0.5 s run (8 users served), was then added: 949.4 opcodes per
  exchange (859.2 on a 1 s run), high because bursts take most of the
  airtime, so the run's set-up and bursts spread over 89 exchanges. Its
  budget was set about 1% above.
- The medium then started each exchange through a firer the engine
  binds once per run for its ``slot-boundary``, not a generic
  ``fire_inline(time, kind, target)`` call that looked the kind's rank
  up and formatted the whole line each time; the firer tests the heap
  head with one tuple comparison, and is told it runs outside
  ``run_until`` by an end time that lies before every time. A window
  counted its lone-station successes and worked its idle time out
  once, at its end, from its span, and V after an exchange became the
  head's expiry slot plus one. With all of it: 430.8 (415.0), 522.8
  (465.4), 452.3 (420.5), 562.3 (468.0), 476.8 (451.1), 472.3
  (444.4), and 919.8 (829.2 on a 1 s run) with bursts; the firer
  alone, with a separate test for being outside ``run_until``, had
  given 445.3 (429.7), 536.6 (479.4), 466.7 (435.1), 576.0 (482.0),
  491.2 (465.8), 486.7 (459.0) and 932.1 (841.6). The budgets were
  tightened to about 1% above the counts with all of it.
- A station then kept its timing's table of windows, ``MacTiming.windows``,
  and a draw took its window from it, where ``draw_backoff`` had worked
  each window out again from ``cw_min``, the stage and ``cw_max``: 418.9
  (403.7), 507.0 (452.0), 440.1 (409.2), 545.3 (454.5), 464.6 (439.8),
  460.1 (433.0), and 907.7 (820.3 on a 1 s run) with bursts. The budgets
  below were tightened to about 1% above these.
- The coordinated schemes spend most of their time in the
  contention-free period, so two cases are held per planned grant, on
  seeded 1 s runs at N=2, M=30: hap-sa 4758.5 and hap-uca 1124.0
  opcodes per grant while the coordinator queued every tick and grant
  end. The beacon then fired each period's events itself in one pass,
  a grant became a named tuple and a delivery summed its subframes in
  one frame: 3932.5 and 985.6. Their budgets were set about 1% above
  these; the per-exchange hap cases read 458.9 and 457.4 with it, and
  lbt with bursts 897.1.
- Each hap user then drew its fading gains 64 at a time into a delivery
  block, and a grant turned its slice into bits in ``segment_bits``:
  3932.5 and 993.5 per grant, 459.2 and 458.1 for the per-exchange hap
  cases, and lbt with bursts 893.7. Over many grants a delivery costs
  less (one user's 160 grants in a row: 270.6 opcodes per standalone
  ``cfp_transmit`` call, was 314.0; 217.3 per aggregation one, was
  220.0), but on these 1 s runs each of the 30 users gets three to ten grants,
  over which its block's set-up and first draw are spread. Converting
  all 64 gains at a draw instead made 4133.0 and 1067.0: up to 63
  conversions a user that no grant reads. The grant budgets stay: hap-sa
  is about 1% above its count, and hap-uca's is under 1% above.
- The run then delivered each user's grants after it ended, in one
  ``cfp_transmit`` call that draws the user's gains at once and turns
  them all into bits in one ``segment_bits`` call, where each
  ``txop-end`` had delivered its grant from a block and booked it to the
  ledger; and an LTE-U burst, which is whole subframes, summed
  ``segment_bits`` itself: 3858.2 and 921.7 per grant (3857.5 and 921.5
  with no other test run before in the process), lbt with bursts 886.9,
  and the per-exchange hap cases 459.0 and 457.3. The grant budgets and
  lbt with bursts were tightened to about 1% above these.
- The medium then kept V and its anchor in its own frame, wrote
  ``phase_start`` once per window, made one window test per decision
  and read one LTE-U burst length and CCA per run, where it had looked
  for the longest burst among its LTE-U winners: 407.9, 495.7, 428.9,
  533.9, 447.9 and 446.1 (were 419.0, 507.3, 440.3, 545.8, 459.0 and
  457.3), lbt with bursts 844.9 (was 886.9), and 3816.0 and 912.6 per
  grant (were 3857.5 and 921.5). Every budget was tightened to about
  1% above these.

Budgets are upper bounds: tighten one only with a count that shows it,
and add the count here. Opcodes differ between CPython minor versions,
so the budgets are kept per version; on a version without budgets each
test is an expected failure that reports its count, never a silent skip.
"""

import sys

import pytest

from coexsim.lbt import LbtParams
from coexsim.radio import ChannelParams
from coexsim.scenario import ScenarioConfig
from coexsim.simulate import run_scenario
from opcode_count import count_opcodes

# (scheme, N, M) -> opcodes per exchange, by CPython (major, minor);
# "lbt-bursts" is lbt with a duty-off of one burst
BUDGET = {
    (3, 11): {("wifi-only", 30, 0): 412, ("wifi-only", 120, 0): 501,
              ("lbt", 30, 10): 433, ("lbt", 120, 10): 539,
              ("hap-sa", 30, 10): 452, ("hap-uca", 30, 10): 451,
              ("lbt-bursts", 30, 10): 853},
}
# scheme -> opcodes per planned grant at N=2, M=30, by CPython version
GRANT_BUDGET = {
    (3, 11): {"hap-sa": 3854, "hap-uca": 922},
}
CASES = [("wifi-only", 30, 0), ("wifi-only", 120, 0), ("lbt", 30, 10),
         ("lbt", 120, 10), ("hap-sa", 30, 10), ("hap-uca", 30, 10)]


def _opcodes_per_exchange(cfg: ScenarioConfig):
    run_scenario(cfg, seed=1)   # first-use work stays out of the count
    opcodes, res = count_opcodes(run_scenario, cfg, 1)
    return opcodes / (res.metrics.success_events
                      + res.metrics.collision_events), res


def _budget(key, per_unit: float, budgets=BUDGET,
            unit: str = "exchange") -> float:
    version = sys.version_info[:2]
    if version not in budgets:
        pytest.xfail(f"no opcode budgets for CPython {version[0]}."
                     f"{version[1]}: {per_unit:.1f} opcodes per {unit}")
    return budgets[version][key]


@pytest.mark.parametrize("scheme,n_wifi,m_lte", CASES,
                         ids=[f"{s}-n{n}-m{m}" for s, n, m in CASES])
def test_an_exchange_stays_within_its_opcode_budget(scheme, n_wifi, m_lte):
    cfg = ScenarioConfig(scheme=scheme, n_wifi=n_wifi, m_lte=m_lte,
                         duration_s=0.2,
                         channel=ChannelParams(pathloss_exponent=2.0))
    per_exchange, _ = _opcodes_per_exchange(cfg)
    assert per_exchange <= _budget((scheme, n_wifi, m_lte), per_exchange)


def test_a_run_with_lte_u_bursts_stays_within_its_opcode_budget():
    cfg = ScenarioConfig(scheme="lbt", n_wifi=30, m_lte=10, duration_s=0.5,
                         channel=ChannelParams(pathloss_exponent=2.0),
                         lbt=LbtParams(duty_off_factor=1))
    per_exchange, res = _opcodes_per_exchange(cfg)
    assert res.metrics.lte_bits      # some burst was delivered
    assert per_exchange <= _budget(("lbt-bursts", 30, 10), per_exchange)


@pytest.mark.parametrize("scheme", ["hap-sa", "hap-uca"])
def test_a_grant_stays_within_its_opcode_budget(scheme):
    cfg = ScenarioConfig(scheme=scheme, n_wifi=2, m_lte=30, duration_s=1.0)
    run_scenario(cfg, seed=1)   # first-use work stays out of the count
    opcodes, res = count_opcodes(run_scenario, cfg, 1)
    per_grant = opcodes / len(res.signalling.grants)
    assert per_grant <= _budget(scheme, per_grant, GRANT_BUDGET, "grant")
