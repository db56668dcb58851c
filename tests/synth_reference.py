"""Array-at-a-time forms of the scene generators in `cloudchange.synth`:
the oracles that its in-place synthesis is tested against.

Each surface here is sampled into its own array and the building is the
`np.vstack` of them; box containment compares whole (n, 3) arrays; the
later cloud of a demolition is the `np.vstack` of survivors and debris.
The library writes the same draws and the same per-element arithmetic
into one preallocated array per epoch, so both must agree bit for bit.
"""
import math

import numpy as np

from cloudchange.geometry import ChangeLabel, PointCloud
from cloudchange.synth import DemolitionScript, RemovalBox, _clipped_box


def sample_rectangle(rng, corner, edge_u, edge_v, density):
    """One jittered sample per grid tile of the rectangle, as its own array."""
    corner = np.asarray(corner, dtype=np.float64)
    edge_u = np.asarray(edge_u, dtype=np.float64)
    edge_v = np.asarray(edge_v, dtype=np.float64)
    len_u = float(np.linalg.norm(edge_u))
    len_v = float(np.linalg.norm(edge_v))
    n_u = max(1, round(len_u * math.sqrt(density)))
    n_v = max(1, round(len_v * math.sqrt(density)))
    iu, iv = np.meshgrid(np.arange(n_u), np.arange(n_v), indexing="ij")
    u = (iu.ravel() + rng.random(n_u * n_v)) / n_u
    v = (iv.ravel() + rng.random(n_u * n_v)) / n_v
    return corner + u[:, None] * edge_u + v[:, None] * edge_v


def generate_building(spec, seed=0):
    """`np.vstack` of every surface's samples, in sampling order."""
    rng = np.random.default_rng(seed)
    w, l, h = spec.width, spec.length, spec.height
    ex = np.array([w, 0.0, 0.0])
    ey = np.array([0.0, l, 0.0])
    ez = np.array([0.0, 0.0, h])
    parts = [
        sample_rectangle(rng, (0, 0, 0), ex, ey, spec.density),  # ground
        sample_rectangle(rng, (0, 0, h), ex, ey, spec.density),  # roof
        sample_rectangle(rng, (0, 0, 0), ey, ez, spec.density),  # wall x = 0
        sample_rectangle(rng, (w, 0, 0), ey, ez, spec.density),  # wall x = w
        sample_rectangle(rng, (0, 0, 0), ex, ez, spec.density),  # wall y = 0
        sample_rectangle(rng, (0, l, 0), ex, ez, spec.density),  # wall y = l
    ]
    story = spec.story_height
    level = 1
    while level * story < h - 1e-9:
        z = level * story
        parts.append(sample_rectangle(rng, (0, 0, z), ex, ey, spec.density))
        level += 1
    if spec.columns is not None:
        grid = spec.columns
        half = grid.side / 2.0
        su = np.array([grid.side, 0.0, 0.0])
        sv = np.array([0.0, grid.side, 0.0])
        for i in range(grid.count_x):
            for j in range(grid.count_y):
                cx = (i + 0.5) * w / grid.count_x
                cy = (j + 0.5) * l / grid.count_y
                parts.append(
                    sample_rectangle(rng, (cx - half, cy - half, 0), sv, ez, spec.density)
                )
                parts.append(
                    sample_rectangle(rng, (cx + half, cy - half, 0), sv, ez, spec.density)
                )
                parts.append(
                    sample_rectangle(rng, (cx - half, cy - half, 0), su, ez, spec.density)
                )
                parts.append(
                    sample_rectangle(rng, (cx - half, cy + half, 0), su, ez, spec.density)
                )
    return PointCloud(np.vstack(parts))


def inside_boxes(points, boxes, spec):
    inside = np.zeros(len(points), dtype=bool)
    for box in boxes:
        lo, hi = _clipped_box(box.lo, box.hi, spec)
        inside |= ((points >= lo) & (points <= hi)).all(axis=1)
    return inside


def apply_demolition(cloud, script, epoch):
    """(later cloud, labels, volume), the later cloud the `np.vstack` of the
    survivors and each box's debris."""
    boxes = [box for box in script.boxes if box.epoch == epoch]
    inside = inside_boxes(cloud.xyz, boxes, script.building)
    labels = np.where(inside, ChangeLabel.CHANGED, ChangeLabel.UNCHANGED).astype(np.uint8)
    survivors = cloud.xyz[~inside]
    later_labels = np.full(len(survivors), ChangeLabel.UNCHANGED, dtype=np.uint8)
    volume = script.removed_volume(epoch)

    pieces = [survivors]
    label_pieces = [later_labels]
    if script.rubble is not None:
        rng = np.random.default_rng(script.rubble.seed + epoch)
        for box in boxes:
            lo, hi = _clipped_box(box.lo, box.hi, script.building)
            box_volume = float(np.prod(np.maximum(hi - lo, 0.0)))
            count = round(script.rubble.points_per_m3 * box_volume)
            if count == 0:
                continue
            debris = np.column_stack(
                [
                    rng.uniform(lo[0], hi[0], count),
                    rng.uniform(lo[1], hi[1], count),
                    rng.uniform(0.0, script.rubble.height, count),
                ]
            )
            pieces.append(debris)
            label_pieces.append(np.full(count, ChangeLabel.CHANGED, dtype=np.uint8))
    later = PointCloud(np.vstack(pieces), labels=np.concatenate(label_pieces))
    return later, labels, volume


def add_noise(cloud, sigma, seed=0):
    """The cloud plus one Gaussian draw per coordinate."""
    if sigma == 0:
        return cloud
    rng = np.random.default_rng(seed)
    return PointCloud(
        cloud.xyz + rng.normal(0.0, sigma, cloud.xyz.shape),
        colors=cloud.colors,
        labels=cloud.labels,
        epochs=cloud.epochs,
        extras=cloud.extras,
    )


def generate_demolition_series(spec, n_epochs, seed=0, noise_sigma=0.0, rubble=None, align=None):
    """(clouds, truth labels, script, interval volumes) of a progressive
    demolition built from the functions above."""
    rng = np.random.default_rng(seed)
    n_intervals = n_epochs - 1
    stripe = spec.width / n_intervals

    def snap(value: float) -> float:
        return value if align is None else round(value / align) * align

    boxes = []
    for k in range(1, n_epochs):
        x0 = (k - 1) * stripe
        margin = 0.1 * stripe
        xa = snap(x0 + margin + rng.uniform(0.0, 0.2 * stripe))
        xb = snap(x0 + stripe - margin - rng.uniform(0.0, 0.2 * stripe))
        ya = snap(rng.uniform(0.05, 0.3) * spec.length)
        yb = snap(rng.uniform(0.7, 0.95) * spec.length)
        boxes.append(RemovalBox(epoch=k, lo=(xa, ya, 0.0), hi=(xb, yb, spec.height)))
    script = DemolitionScript(building=spec, boxes=tuple(boxes), rubble=rubble)

    clouds = [generate_building(spec, seed)]
    truth_labels = []
    volumes = []
    for k in range(1, n_epochs):
        later, labels, volume = apply_demolition(clouds[-1], script, epoch=k)
        truth_labels.append(labels)
        volumes.append(volume)
        clouds.append(later)
    if noise_sigma > 0:
        clouds = [add_noise(c, noise_sigma, seed + 1000 + i) for i, c in enumerate(clouds)]
    return clouds, truth_labels, script, volumes
