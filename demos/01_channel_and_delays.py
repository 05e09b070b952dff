#!/usr/bin/env python3
"""Walk through the system physics one formula at a time.

Four users sit 10-100 m from a server.  Each round, a user pays for a
server CPU share (the shared teacher network always runs there), trains
its chosen student network either locally or on the server, and syncs
parameters over a wireless link.  This script prints how each delay
component reacts to distance, bandwidth, and the offload flag.
"""

from fedkd import channel_gain, default_scenario, delays, objective, tx_rate
from fedkd.model import Allocation, Decision

sc = default_scenario()
ch = sc.channel

print("=== path loss ===")
for d in (10, 25, 50, 100):
    h = channel_gain(d, ch)
    print(f"  d = {d:>3} m   gain = {h:.3e}   ({10 * __import__('math').log10(h):.1f} dB)")

print("\n=== transmission rate (0.1 W transmit power) ===")
for d in (10, 100):
    h = channel_gain(d, ch)
    for b in (1.0, 2.5, 10.0):
        print(f"  d = {d:>3} m, b = {b:>4} MHz  ->  {tx_rate(b, 0.1, h, ch):8.2f} Mbit/s")
print("  (rate is exactly linear in bandwidth: the noise term is a fixed power)")

print("\n=== one user's delay anatomy ===")
user = sc.users[1]
model = sc.catalog[2]
h = channel_gain(user.d, ch)
rate = tx_rate(2.5, user.p, h, ch)
for xi, label in ((0, "train student on the server"), (1, "train student locally")):
    dl = delays(user.f_loc, model, sc.teacher, xi, fi=2.5, rate_i=rate)
    print(f"  {label}:")
    print(f"    teacher forward  {dl.t_tea:6.2f} s   student update {dl.t_stu:6.2f} s")
    print(f"    label download   {dl.t_label:6.2f} s   parameter sync {dl.t_model:6.2f} s")
    print(f"    total            {dl.total():6.2f} s")

print("\n=== the full objective ===")
# equal splits, mid-tier model everywhere, measured distillation accuracies
dec = Decision(x=(0, 0, 0, 0), m=(2, 2, 2, 2))
al = Allocation(f=(2.5,) * 4, b=(2.5,) * 4)
from fedkd import DEFAULT_TABLE, acc_pair

own, avg = acc_pair(DEFAULT_TABLE, sc.catalog[2].name, "KD", "noniid")
val = objective(sc, dec, al, [own] * 4, [avg] * 4)
print(f"  all users on {sc.catalog[2].name}, equal resource split")
print(f"  objective = {val:.4f}  (delay and resource prices minus accuracy rewards)")
