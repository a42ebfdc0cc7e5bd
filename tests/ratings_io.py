"""Ratings-file writer for tests: the inverse of ``qoe.load_ratings_csv``."""

import csv

from asms.qoe import RATINGS_HEADER


def write_ratings_csv(path, records):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RATINGS_HEADER)
        for rec in records:
            for t, (x, y, l, j, p, n) in enumerate(rec.rows.tolist()):
                writer.writerow([
                    rec.scenario, t, f"{x:.6g}", f"{y:.6g}", f"{l:.6g}", f"{j:.6g}",
                    f"{p:.6g}", f"{n:.6g}", f"{rec.frame_rate[t]:.6g}", rec.users[t],
                    f"{rec.mos:.6g}",
                ])
