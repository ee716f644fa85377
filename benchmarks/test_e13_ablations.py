"""E13 (ablations) — the design decisions DESIGN.md calls out, measured.

* **D2, log padding**: page-aligning entries spends disk space to close
  the torn-shared-page durability hole of the paper's exact layout.
  Both sides quantified: bytes per entry, and committed-entry losses
  across an exhaustive crash sweep.
* **D2', checksums**: with CRC validation disabled, a corrupted entry is
  replayed as garbage instead of being rejected — the ablation shows the
  checksum is load-bearing on substrates without the paper's
  "partially written page reports an error" hardware property.
* **D6, general-purpose pickles**: the paper pays ~40 % of update latency
  for pickling generality; a hand-rolled fixed-format encoder for the
  same update is measured for comparison (what the paper's "custom
  designed data representation" rivals would do).
"""

from __future__ import annotations

import struct

from conftest import once
from repro.core import OperationRegistry
from repro.core.log import LogWriter
from repro.obs.regress import metric
from repro.pickles import pickle_write
from repro.sim import CrashPointSweep, SimClock
from repro.storage import SimFS


def _ops() -> OperationRegistry:
    ops = OperationRegistry()

    @ops.operation("set")
    def op_set(root, key, value):
        root[key] = value

    return ops


_SCRIPT = [
    ("update", "set", (f"key{i}", "v" * (200 + 37 * i % 300)))
    for i in range(8)
]


def test_e13_padding_ablation(benchmark, report):
    ops = _ops()
    results = {}

    def run():
        for padded in (True, False):
            sweep = CrashPointSweep(
                _SCRIPT, ops, pad_log_to_page=padded
            )
            outcome = sweep.run()
            outcome.assert_clean()
            # Measure the space side on a fresh log.
            fs = SimFS(clock=SimClock())
            writer = LogWriter(fs, "log", pad_to_page=padded)
            for _kind, _op, (key, value) in _SCRIPT:
                writer.append(pickle_write(("set", (key, value), {})))
            results[padded] = {
                "bytes": fs.size("log"),
                "losses": outcome.total("lost_committed_update"),
                "states": outcome.runs,
            }
        return results

    once(benchmark, run)
    padded, unpadded = results[True], results[False]
    assert padded["losses"] == 0
    assert unpadded["losses"] > 0
    overhead = padded["bytes"] / unpadded["bytes"]
    assert overhead < 3.0  # bounded space cost at paper-sized entries

    report(
        "E13 log padding ablation (design note D2)",
        [
            f"padded:   {padded['bytes']:6d} log bytes, "
            f"{padded['losses']} committed losses / {padded['states']} crash states",
            f"unpadded: {unpadded['bytes']:6d} log bytes, "
            f"{unpadded['losses']} committed losses / {unpadded['states']} crash states",
            f"space overhead of safety: {overhead:.2f}x at ~paper-sized entries",
        ],
        metrics={
            "e13_padding_space_overhead": metric(overhead, "x"),
            "e13_padded_commit_losses": metric(padded["losses"], "states"),
        },
    )


def test_e13_checksum_ablation(benchmark, report):
    """Bit-flip a committed entry; compare CRC-on vs CRC-ignored."""
    from repro.core.log import LogScan
    import zlib

    outcomes = {}

    def run():
        fs = SimFS(clock=SimClock())
        writer = LogWriter(fs, "log", pad_to_page=False)
        payload = pickle_write(("set", ("key", "AAAA"), {}))
        writer.append(payload)
        raw = bytearray(fs.read("log"))
        flip_at = len(raw) - 6  # inside the payload, before the CRC
        raw[flip_at] ^= 0x40
        fs.write("log", bytes(raw))

        scan = LogScan(fs, "log")
        entries = list(scan)
        outcomes["with_crc"] = (
            len(entries),
            scan.outcome.damage is not None,
        )

        # Ablated: accept the frame without validating the checksum.
        entry_bytes = bytes(raw)
        stored_crc = int.from_bytes(entry_bytes[-4:], "big")
        body = entry_bytes[1:-4]
        outcomes["crc_would_have_caught"] = (
            zlib.crc32(body) & 0xFFFFFFFF
        ) != stored_crc
        corrupted_payload = body[2:]  # past seq + length varints
        try:
            from repro.pickles import pickle_read

            value = pickle_read(corrupted_payload)
            outcomes["ablated_result"] = f"decoded silently: {value!r}"
            outcomes["silent"] = True
        except Exception as exc:
            outcomes["ablated_result"] = f"decode failed loudly: {type(exc).__name__}"
            outcomes["silent"] = False
        return outcomes

    once(benchmark, run)
    accepted, damage_flagged = outcomes["with_crc"]
    assert accepted == 0 and damage_flagged
    assert outcomes["crc_would_have_caught"]
    report(
        "E13b checksum ablation (substrates without error-reporting pages)",
        [
            "with CRC: corrupted entry rejected, log flagged damaged",
            f"without CRC: {outcomes['ablated_result']}",
            "(a silent decode would replay wrong data; the CRC is load-bearing)",
        ],
    )


def test_e13_pickles_vs_handrolled_format(benchmark, report):
    """D6: what the pickling generality costs versus a fixed format."""
    key, value = "com/dec/src/printer3", "v" * 380
    update = ("set", (key, value), {})

    def handrolled(update) -> bytes:
        _op, (k, v), _kw = update
        raw_k = k.encode()
        raw_v = v.encode()
        return struct.pack(">HH", len(raw_k), len(raw_v)) + raw_k + raw_v

    def run():
        general = pickle_write(update)
        fixed = handrolled(update)
        return len(general), len(fixed)

    general_bytes, fixed_bytes = once(benchmark, run)
    size_ratio = general_bytes / fixed_bytes
    # At the calibrated 55 µs/byte, bytes are CPU time: the generality
    # premium in both space and modelled time is this same ratio.
    assert size_ratio < 1.6

    report(
        "E13c pickles vs hand-rolled format (design note D6)",
        [
            f"general pickles:   {general_bytes:4d} bytes  "
            f"(~{general_bytes * 55e-3:.1f} ms at 55 µs/B)",
            f"fixed hand format: {fixed_bytes:4d} bytes  "
            f"(~{fixed_bytes * 55e-3:.1f} ms)",
            f"generality premium: {size_ratio:.2f}x — the paper judged it "
            "worth the simplicity, and so do we",
        ],
        metrics={
            "e13_pickle_generality_premium": metric(size_ratio, "x"),
        },
    )
