"""Golden render test: every harness table, byte for byte.

Hand-built rows (no simulation) rendered through the experiment table
must reproduce the pinned text exactly, so a column-width or alignment
drift fails here where substring checks would pass.  The goldens cover
the grouped Figure 13/16 tables, the backend sweep's per-backend
columns, the chain and traffic footers, the CSV export, and both
calibration bridges' reports, including an out-of-band record.
"""

import pytest

from repro.collectives import calibrate as collectives_calibrate
from repro.flowsim import calibrate as flowsim_calibrate
from repro.harness import experiments as exp
from repro.harness.figures import SWEEPS


def table1_rows():
    return [
        {"model": "ResNet50", "size_mb": 98, "batch_size_per_gpu": 64,
         "dataset": "ImageNet"},
        {"model": "DenseNet161", "size_mb": 1234567, "batch_size_per_gpu": 8,
         "dataset": "CIFAR-10"},
    ]


def fig12_results():
    return {
        "resnet50": exp.Fig12Result("ResNet50", 75.0, 12.345, 19.25, 1.5594,
                                    [(0.0, 0.0)], [(0.0, 0.0)]),
        "vgg11": exp.Fig12Result("VGG11", 68.4, 1234.5, 99999.99, 81.0,
                                 [], []),
    }


def fig13_results():
    return {
        "resnet50": [exp.Fig13Row(0.0, 101.25, 110.55, 120.05),
                     exp.Fig13Row(0.16, 101.25, 112.0, 190.75)],
        "vgg11": [exp.Fig13Row(0.08, 1000.0, 1050.5, 123456.789)],
    }


def backend_rows():
    systems = ("ideal", "ring-straggler", "switchml", "trioml")
    return [
        exp.BackendSweepRow(0.0, {s: 100.0 + i
                                  for i, s in enumerate(systems)}),
        exp.BackendSweepRow(0.16, {s: 1e5 / (i + 3)
                                   for i, s in enumerate(systems)}),
    ]


def fig14_rows():
    return [exp.Fig14Row(2.5, 3.125, 4.5, 60),
            exp.Fig14Row(20.0, 27.333, 39.999, 7)]


def fig15_rows():
    return [exp.Fig15Row(64, 30.125, 2.1245),
            exp.Fig15Row(1024, 201.5, 5.0819)]


def fig16_results():
    return {
        512: [exp.Fig16Row(1, 30.25, 1.5),
              exp.Fig16Row(4096, 999.99, 150.125)],
        1024: [exp.Fig16Row(64, 120.0, 88.875)],
    }


def ablation_rows():
    return [exp.AblationRow("rmw-engine offload", 0.652, "us"),
            exp.AblationRow("thread-ownership lock", 18.43199999999997,
                            "us")]


def generation_rows():
    return [exp.GenerationRow(1, 2009, 16, 2, 12.3456, 9.875),
            exp.GenerationRow(6, 2022, 160, 24, 1.5, 123.25)]


def _fluid(**fields):
    base = dict(flows=500, mean_fct_ms=1.2345, p99_fct_ms=9.876,
                mean_goodput_gbps=42.5, simulated_gbytes=1.25,
                sim_seconds=0.01, solves=900, escalations={})
    base.update(fields)
    return base


def hybrid_rows():
    return [
        exp.HybridRow(load=0.3, **_fluid(
            escalations={"incast": 3, "straggler": 12})),
        exp.HybridRow(load=0.7, **_fluid(
            flows=2000, mean_fct_ms=0.5, p99_fct_ms=2.0,
            mean_goodput_gbps=80.0, simulated_gbytes=10.0,
            sim_seconds=0.2, solves=4000)),
    ]


def traffic_rows():
    return [
        exp.TrafficRow(scenario="websearch", chain_packets=2048,
                       forwarded=2000, dropped=40, consumed=8, **_fluid(
                           flows=5000, mean_fct_ms=3.25, p99_fct_ms=30.125,
                           mean_goodput_gbps=12.5, simulated_gbytes=4.5,
                           sim_seconds=0.3, solves=6000,
                           escalations={"incast": 2})),
        exp.TrafficRow(scenario="ddos", chain_packets=0, forwarded=0,
                       dropped=0, consumed=0, **_fluid(
                           flows=100, mean_fct_ms=0.125, p99_fct_ms=0.5,
                           mean_goodput_gbps=1.0, simulated_gbytes=0.01,
                           sim_seconds=0.01, solves=50)),
    ]


def chain_rows():
    return [
        exp.ChainRow(("trio", "trio", "trio"), 120.5, 0, 900, 100, 24,
                     "0123456789abcdef", chosen=True),
        exp.ChainRow(("host", "pisa", "trio"), 0.0, 2, 900, 100, 24,
                     "0123456789abcdef"),
        exp.ChainRow(("trio",) * 6, 1500.25, 12345678, 1, 2, 3,
                     "fedcba9876543210"),
    ]


def loss_rows():
    return [exp.LossRow(0.0, 1.2345, 0, 0, 0),
            exp.LossRow(0.1, 12.5, 123, 45, 6)]


def flowsim_cases():
    case = flowsim_calibrate.CalibrationCase
    return {
        "pair": case("pair", "mean FCT (s)", 1.7e-05, 1.6e-05, 1.1),
        "incast": case("incast", "aggregate goodput (bps)", 9.5e10, 3e10,
                       1.8),
    }


def collectives_calibrations():
    record = collectives_calibrate.GoodputCalibration
    return {
        "trioml": record("trioml", 5.5e10, 5.5e10, 6e10),
        "switchml": record("switchml", 9e10, 2e10, 5e10, 2.0),
    }


RENDERS = {
    "table1": lambda: SWEEPS[exp.table1_models].render(table1_rows()),
    "fig12": lambda: SWEEPS[exp.fig12_time_to_accuracy].render(
        fig12_results()),
    "fig13": lambda: SWEEPS[exp.fig13_iteration_time].render(
        fig13_results()),
    "backends": lambda: SWEEPS[exp.backend_sweep].render(backend_rows()),
    "backends_vgg11": lambda: SWEEPS[exp.backend_sweep].render(
        backend_rows(), model="vgg11"),
    "backends_empty": lambda: SWEEPS[exp.backend_sweep].render([]),
    "fig14": lambda: SWEEPS[exp.fig14_mitigation].render(fig14_rows()),
    "fig15": lambda: SWEEPS[exp.fig15_latency_rate].render(fig15_rows()),
    "fig16": lambda: SWEEPS[exp.fig16_window_sweep].render(
        fig16_results()),
    "analysis": lambda: SWEEPS[exp.microcode_program_analysis].render(
        exp.ProgramAnalysis(60, 1.2, 1.23456, 12, 2, 6e9)),
    "ablation": lambda: SWEEPS[exp.ablation_rmw_offload].render(
        ablation_rows()),
    "generations": lambda: SWEEPS[exp.generation_scaling].render(
        generation_rows()),
    "hybrid": lambda: SWEEPS[exp.hybrid_sweep].render(hybrid_rows()),
    "traffic": lambda: SWEEPS[exp.traffic_sweep].render(traffic_rows()),
    "chains": lambda: SWEEPS[exp.chains_sweep].render(chain_rows()),
    "loss": lambda: SWEEPS[exp.loss_recovery_sweep].render(loss_rows()),
    "fig13_csv": lambda: SWEEPS[exp.fig13_iteration_time].to_csv(
        fig13_results()),
    "fig15_csv": lambda: SWEEPS[exp.fig15_latency_rate].to_csv(
        fig15_rows()),
    "fig16_csv": lambda: SWEEPS[exp.fig16_window_sweep].to_csv(
        fig16_results()),
    "flowsim_calibration": lambda: flowsim_calibrate.render_calibration(
        flowsim_cases()),
    "collectives_calibration": (
        lambda: collectives_calibrate.render_calibration(
            collectives_calibrations())),
}

GOLDEN = {
    "table1": """\
Table 1: DNN models used in the experiments
------------------------------------------------------------------------
Model             Size    Batch size/GPU     Dataset
ResNet50          98 MB                64    ImageNet
DenseNet161   1234567 MB                 8    CIFAR-10""",
    "fig12": """\
Figure 12: time-to-accuracy at straggling probability p=16%
------------------------------------------------------------------------
ResNet50       target 75% top-5: Trio-ML    12.3 min | SwitchML    19.2 min | speedup 1.56x
VGG11          target 68% top-5: Trio-ML  1234.5 min | SwitchML 100000.0 min | speedup 81.00x""",
    "fig13": """\
Figure 13: training iteration time vs straggling probability
------------------------------------------------------------------------
[resnet50]
     p    Ideal (ms)  Trio-ML (ms)  SwitchML (ms)   speedup
    0%         101.2         110.5          120.0     1.09x
   16%         101.2         112.0          190.8     1.70x
[vgg11]
     p    Ideal (ms)  Trio-ML (ms)  SwitchML (ms)   speedup
    8%        1000.0        1050.5       123456.8   117.52x""",
    "backends": """\
Backend sweep: iteration time (ms) vs straggling probability [resnet50]
------------------------------------------------------------------------------------------------------
     p       Ideal (NCCL ring)  NCCL ring (stragglers)            SwitchML-256                 Trio-ML
    0%                   100.0                   101.0                   102.0                   103.0
   16%                 33333.3                 25000.0                 20000.0                 16666.7""",
    "backends_vgg11": """\
Backend sweep: iteration time (ms) vs straggling probability [vgg11]
------------------------------------------------------------------------------------------------------
     p       Ideal (NCCL ring)  NCCL ring (stragglers)            SwitchML-256                 Trio-ML
    0%                   100.0                   101.0                   102.0                   103.0
   16%                 33333.3                 25000.0                 20000.0                 16666.7""",
    "backends_empty": """\
Backend sweep: iteration time (ms) vs straggling probability [resnet50]
------------------------------------------------------------------------
     p""",
    "fig14": """\
Figure 14: in-network timer threads' efficiency
------------------------------------------------------------------------
  Timeout (ms)  Mean mitigation (ms)  Max (ms)  Blocks
           2.5                  3.12      4.50      60
          20.0                 27.33     40.00       7""",
    "fig15": """\
Figure 15: per-PFE aggregation latency and rate (window=1)
------------------------------------------------------------------------
 Grads/packet  Latency (us)  Rate (grad/us)
           64         30.12            2.12
         1024        201.50            5.08""",
    "fig16": """\
Figure 16: impact of window size on latency and throughput
------------------------------------------------------------------------
[Trio-ML-512]
  Window  Latency (us)  Throughput (Gbps)
       1          30.2               1.50
    4096        1000.0             150.12
[Trio-ML-1024]
  Window  Latency (us)  Throughput (Gbps)
      64         120.0              88.88""",
    "analysis": """\
Section 6.3: Trio-ML Microcode program analysis
------------------------------------------------------------------------
static program size:           ~60 instructions
aggregation loop efficiency:    1.20 instructions/gradient
measured (incl. overheads):     1.23 instructions/gradient
read-modify-write engines:      12 (2 cycles/add)
aggregate add rate:             6.0 Gops/s per PFE""",
    "ablation": """\
Ablation: RMW engine offload vs thread-ownership locking (§2.3)
------------------------------------------------------------------------
rmw-engine offload                                      0.65 us
thread-ownership lock                                  18.43 us""",
    "generations": """\
Supplementary: the same aggregation job across Trio generations
------------------------------------------------------------------------
 Gen  Year  PPEs  RMW engines  Completion (ms)  Throughput (Gbps)
   1  2009    16            2           12.346               9.88
   6  2022   160           24            1.500             123.25""",
    "hybrid": """\
Hybrid flow/packet simulation: FCT and escalations vs offered load
----------------------------------------------------------------------------------------
  Load  Flows  Mean FCT (ms)  p99 (ms)  Goodput (Gbps)  Sim (GB)  Solves  Escalated
   30%    500          1.234      9.88           42.50      1.25     900         15  (incast 3, straggler 12)
   70%   2000          0.500      2.00           80.00     10.00    4000          0""",
    "traffic": """\
Traffic scenario sweep (fluid level + packet level vs firewall -> telemetry)
----------------------------------------------------------------------------------------------------
Scenario         Flows  Mean FCT (ms)  p99 (ms)  Goodput (Gbps)  Escalated   Pkts  Drop%
websearch         5000          3.250     30.12           12.50          2   2048   2.0%  (incast 2)
ddos               100          0.125      0.50            1.00          0      0   0.0%
----------------------------------------------------------------------------------------------------
2 scenario(s), 5100 flows, 4.51 GB simulated payload""",
    "chains": """\
NF chain placement sweep: firewall -> telemetry -> aggregate
------------------------------------------------------------------------------------------
Placement                     ns/pkt    Mpps  Cross     Fwd    Drop  Consume   Fingerprint
*trio,trio,trio                120.5    8.30      0     900     100       24  0123456789ab
 host,pisa,trio                  0.0    0.00      2     900     100       24  0123456789ab
 trio,trio,trio,trio,trio,trio    1500.2    0.6712345678       1       2        3  fedcba987654
------------------------------------------------------------------------------------------
3 legal placement(s), 2 distinct result fingerprint(s); * = greedy cost-driven choice""",
    "loss": """\
Supplementary: allreduce under packet loss with §7 resiliency
------------------------------------------------------------------------
 Loss rate  Completion (ms)  Frames lost  Retransmits  Replays
      0.0%            1.234            0            0        0
     10.0%           12.500          123           45        6""",
    "fig13_csv": """\
model,probability,ideal_ms,trioml_ms,switchml_ms
resnet50,0.0,101.25,110.55,120.05
resnet50,0.16,101.25,112.0,190.75
vgg11,0.08,1000.0,1050.5,123456.789
""",
    "fig15_csv": """\
grads_per_packet,latency_us,rate_grads_per_us
64,30.125,2.1245
1024,201.5,5.0819
""",
    "fig16_csv": """\
grads_per_packet,window,latency_us,throughput_gbps
512,1,30.25,1.5
512,4096,999.99,150.125
1024,64,120.0,88.875
""",
    "flowsim_calibration": """\
Calibration bridge: fluid level vs packet level
------------------------------------------------------------------------
case     quantity                        fluid       packet   ratio  band
pair     mean FCT (s)                  1.7e-05      1.6e-05   1.06x  [0.91x, 1.10x] ok
incast   aggregate goodput (bps)       9.5e+10        3e+10   3.17x  [0.56x, 1.80x] OUT OF BAND""",
    "collectives_calibration": """\
Calibration bridge: packet-level derived vs closed-form goodputs
------------------------------------------------------------------------
system      wire Gbps  derived Gbps  hand Gbps  hand/derived  band
trioml          55.00         55.00      60.00         1.09x  [0.56x, 1.80x] ok
switchml        90.00         20.00      50.00         2.50x  [0.50x, 2.00x] OUT OF BAND""",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_render_matches_golden(name):
    assert RENDERS[name]() == GOLDEN[name]


def test_backend_sweep_title_names_the_swept_model():
    args = {"model": "vgg11", "probabilities": (0.0,), "iterations": 5}
    sweep = SWEEPS[exp.backend_sweep]
    rendered = sweep.render(sweep.driver(**args), **args)
    assert rendered.split("\n")[0].endswith("[vgg11]")


def test_chain_sweep_title_names_the_swept_chain():
    rendered = SWEEPS[exp.chains_sweep].render(
        chain_rows(), spec="firewall -> telemetry")
    assert rendered.split("\n")[0] == (
        "NF chain placement sweep: firewall -> telemetry")
