"""Ratings-file writer for tests: the inverse of ``qoe.load_ratings_csv``."""

import csv

from asms.qoe import RATINGS_HEADER


def write_ratings_csv(path, records):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RATINGS_HEADER)
        for rec in records:
            for t, step in enumerate(rec.steps):
                o = step.obs
                writer.writerow([
                    rec.scenario, t,
                    f"{o.target_mbps:.6g}", f"{o.received_mbps:.6g}",
                    f"{o.latency_ms:.6g}", f"{o.jitter_ms:.6g}",
                    f"{o.lost_packets:.6g}", f"{o.nack_count:.6g}",
                    f"{step.frame_rate:.6g}", step.users, f"{rec.mos:.6g}",
                ])
