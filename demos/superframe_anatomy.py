"""Inside one repetition interval: beacon, scheduled grants, contention.

Builds the 100 ms plan for ten LTE users sharing with thirty Wi-Fi
stations, in both packing modes, and prints where every microsecond
goes. Then rolls the standalone planner forward ten intervals to show
the round-robin cursor serving every user the same number of grants.

Run:  python3 demos/superframe_anatomy.py
"""

from coexsim.hap import build_superframe, cfp_budget_us

M, N = 10, 30

budget = cfp_budget_us(M, N, 100_000, 500)
print(f"interval 100000 us, beacon 500 us, budget for LTE: {budget} us "
      f"(= 99500 x {M}/{M + N})\n")

for mode in ("standalone", "uca"):
    plan = build_superframe(M, N, mode=mode)
    cp_us = 100_000 - 500 - plan.cfp_us
    print(f"{mode}: beacon 500 | CFP {plan.cfp_us} | CP {cp_us}"
          f"  (remainder {plan.remainder_us} us handed to the CP)")
    for g in plan.grants[:6]:
        tag = f"n={g.n_subframes}" if g.n_subframes else "chunk"
        print(f"    {g.user_id}  [{g.start_us:>6} .. {g.end_us:>6})"
              f"  {g.duration_us:>5} us  {tag}")
    if len(plan.grants) > 6:
        print(f"    ... {len(plan.grants) - 6} more grants")
    print()

print("standalone planner over ten intervals (grants per user):")
served = {f"lte-{i:02d}": 0 for i in range(M)}
rotation = 0
for k in range(10):
    plan = build_superframe(M, N, start_us=k * 100_000, rotation=rotation)
    for g in plan.grants:
        served[g.user_id] += 1
    rotation = plan.next_rotation
for uid, count in served.items():
    print(f"    {uid}: {'#' * count} ({count})")
