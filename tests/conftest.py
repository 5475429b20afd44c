"""Shared fixtures."""

import math

import pytest


@pytest.fixture
def class_csv(tmp_path):
    """Writer of a two-feature CSV dataset with columns ``a,b,y`` and labels
    ``i % n_classes``; it returns the file's path."""
    def write(n_classes: int, rows: int = 72):
        lines = ["a,b,y"]
        for i in range(rows):
            c = i % n_classes
            lines.append(f"{c + 0.5 * math.sin(1.7 * i):.6f},"
                         f"{math.cos(c) + 0.3 * math.cos(2.3 * i):.6f},{c}")
        path = tmp_path / f"classes{n_classes}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path
    return write
