"""Procedural four-view phantom screening exams.

Each exam is four 16-bit PGM images (R-CC, L-CC, R-MLO, L-MLO) of a
synthetic breast: a half-ellipse silhouette for CC views, an additional
pectoral wedge for MLO views, fibroglandular texture scaled by a density
attribute, and zero background. Findings are drawn as masses,
calcification clusters, or asymmetries; the malignant/benign distinction
is carried by an explicit margin-irregularity knob so the classes are
separable by construction. This is a stand-in corpus with known ground
truth, not a claim of anatomical realism.

On disk, a dataset directory holds ``images/<exam>_<view>.pgm`` for every
view; ``masks/<exam>_<view>_<malignancy>.pgm`` (8-bit, 255 on the
lesion support), written only for a non-empty support; and
``manifest.csv``, whose columns are ``ExamRecord``'s fields in their order,
then the four view paths (``<view>_path``, relative to the directory). Its
coded columns are ``split`` (one of ``SPLITS``), the eight 0/1 labels and
flags and the 0-2 ``birads``; the age band and density are free labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .formats import FormatError, checked, read_table, write_table
from .pgm import read_pgm, write_pgm
from .resample import gaussian_blur
from .seeding import _map_threads, substream

VIEWS = ("rcc", "lcc", "rmlo", "lmlo")
SPLITS = ("train", "val", "test")
AGE_BANDS = ("<40", "40s", "50s", "60s", "70+")
DENSITIES = ("fatty", "scattered", "heterogeneous", "extreme")

_LESION_KINDS = ("mass", "calcification_cluster", "asymmetry")
_AGE_P = (0.10, 0.30, 0.30, 0.20, 0.10)
_DENSITY_P = (0.10, 0.40, 0.40, 0.10)
_KIND_P = (0.55, 0.35, 0.10)
_DENSITY_CONTRAST = {"fatty": 0.55, "scattered": 1.0,
                     "heterogeneous": 1.6, "extreme": 2.3}
MAXVAL = 65535


class GeneratorError(RuntimeError):
    pass


@dataclass
class LesionSpec:
    kind: str                 # mass | calcification_cluster | asymmetry
    malignancy: str           # benign | malignant
    center: tuple             # (u, v): chest-wall depth in [0,1], lateral in [-1,1]
    size_px: float
    irregularity: float       # >= 0.5 iff malignant
    shape_seed: int           # shared by both views so supports agree

    def __post_init__(self):
        mal = self.malignancy == "malignant"
        if mal != (self.irregularity >= 0.5):
            raise ValueError("irregularity must be >= 0.5 exactly for malignant lesions")


@dataclass
class BreastSpec:
    benign: int = 0
    malignant: int = 0
    biopsied: int = 0
    occult: int = 0
    lesions: list = field(default_factory=list)


@dataclass
class ExamSpec:
    exam_id: str
    patient_id: str
    split: str
    age_band: str
    density: str
    left: BreastSpec
    right: BreastSpec
    seed: int
    density_coupling: float


@dataclass
class ExamRecord:
    exam_id: str
    patient_id: str
    split: str
    age_band: str
    density: str
    left_benign: int
    left_malignant: int
    right_benign: int
    right_malignant: int
    left_biopsied: int
    right_biopsied: int
    left_occult: int
    right_occult: int
    birads: int
    view_paths: dict

    def labels(self, side):
        """(benign, malignant) for side 'L' or 'R'."""
        if side == "L":
            return self.left_benign, self.left_malignant
        return self.right_benign, self.right_malignant

    def biopsied(self, side):
        return self.left_biopsied if side == "L" else self.right_biopsied

    @property
    def any_biopsied(self):
        """Whether either breast of the exam was biopsied."""
        return bool(self.left_biopsied or self.right_biopsied)


# the manifest's columns: the record's fields, with the view paths last
_COLUMNS = [f.name for f in fields(ExamRecord)][:-1]
MANIFEST_HEADER = ",".join(_COLUMNS + [f"{v}_path" for v in VIEWS])


@dataclass
class DatasetConfig:
    exams: int
    cc_dims: tuple                # H, W
    mlo_dims: tuple
    biopsied_fraction: float
    malignant_fraction: float     # among biopsied exams
    both_fraction: float          # biopsied breasts carrying both findings
    bilateral_fraction: float     # biopsied exams with both breasts biopsied
    occult_fraction: float        # among biopsied exams
    split_fractions: tuple        # train, val, test
    multi_exam_fraction: float    # patients contributing two exams
    birads_noise: float
    lesion_frac_range: tuple      # lesion size vs min image extent
    density_coupling: float       # contrast loss of lesions in dense breasts

    def validate(self):
        if min(min(self.cc_dims), min(self.mlo_dims)) < 32:
            raise GeneratorError("image dims too small for requested lesion sizes")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise GeneratorError("split fractions must sum to 1")


# ---------------------------------------------------------------------------
# view frames and lesion fields

def _frame(dims, mlo, geo):
    """A view geometry's frame for a rightward-oriented breast (chest wall
    at x=0): the breast region, the pectoral wedge (empty on a CC view),
    the vignette, and the lesion placement geometry (cy, ry, rx)."""
    h, w = dims
    ry = (geo["ry_mlo"] if mlo else geo["ry_cc"]) * h
    rx = (geo["rx_mlo"] if mlo else geo["rx_cc"]) * w
    cy = h * (0.55 if mlo else 0.5)
    yy, xx = np.mgrid[0:h, 0:w]
    q = (xx / rx) ** 2 + ((yy - cy) / ry) ** 2
    ph, pw = geo["pec_h"] * h, geo["pec_w"] * w
    wedge = mlo & (yy < ph) & (xx < pw * (1.0 - yy / ph))
    vignette = np.clip(1.15 - 0.45 * np.sqrt(q) ** 3, 0.0, 1.15)
    return (q <= 1.0) | wedge, wedge, vignette, (cy, ry, rx)


def _mass_field(dims, center, size_px, irregularity, amp, rng):
    """Mass with a soft blob core shared by both classes; irregular masses
    additionally carry fine interior speckle and thin radial spicules, i.e.
    the class signal lives in high-frequency structure rather than in
    brightness or extent."""
    h, w = dims
    base_r = size_px / 2.0
    malignant = irregularity >= 0.5
    wobble = 0.08 + 0.50 * irregularity
    nterms = 3 if not malignant else 6
    ks = rng.integers(3, 9, size=nterms)
    phases = rng.uniform(0, 2 * math.pi, size=nterms)
    coef = rng.uniform(0.3, 1.0, size=nterms)
    coef /= coef.sum()
    edge = base_r * (0.45 if not malignant else 0.12)
    pad = int(base_r * (1 + wobble) + edge + 3)

    cy, cx = center
    y0, y1 = max(0, int(cy) - pad), min(h, int(cy) + pad + 1)
    x0, x1 = max(0, int(cx) - pad), min(w, int(cx) + pad + 1)
    yy, xx = np.mgrid[y0:y1, x0:x1]
    dy = yy - cy
    dx = xx - cx
    rho = np.hypot(dy, dx)
    phi = np.arctan2(dy, dx)
    margin = base_r * (1.0 + wobble * sum(
        c * np.sin(k * phi + p) for c, k, p in zip(coef, ks, phases)))
    profile = np.clip((margin - rho) / max(edge, 1e-6), 0.0, 1.0)
    field = amp * profile ** 1.5

    if malignant:
        # interior speckle: a granular texture cue on top of the spiky margin
        n_speck = int(rng.integers(6, 12))
        for _ in range(n_speck):
            ang = rng.uniform(0, 2 * math.pi)
            rad = rng.uniform(0, 0.7) * base_r
            sy, sx = cy + rad * math.sin(ang), cx + rad * math.cos(ang)
            pr = rng.uniform(0.9, 1.5)
            d2 = (yy - sy) ** 2 + (xx - sx) ** 2
            speck = amp * 1.6 * np.exp(-0.5 * d2 / pr ** 2)
            speck[d2 > (2.2 * pr) ** 2] = 0.0
            field = np.maximum(field, speck)

    out = np.zeros(dims)
    out[y0:y1, x0:x1] = field
    return out


def _calc_field(dims, center, size_px, irregularity, amp, rng):
    """Cluster of bright specks: many fine ones when irregular (malignant),
    few coarse ones otherwise."""
    h, w = dims
    cluster_r = size_px / 2.0
    malignant = irregularity >= 0.5
    n = int(rng.integers(10, 18)) if malignant else int(rng.integers(3, 7))
    speck_r = rng.uniform(0.7, 1.3) if malignant else rng.uniform(1.6, 2.6)
    out = np.zeros(dims)
    cy, cx = center
    for _ in range(n):
        ang = rng.uniform(0, 2 * math.pi)
        rad = cluster_r * math.sqrt(rng.uniform(0, 1.0))
        sy, sx = cy + rad * math.sin(ang), cx + rad * math.cos(ang)
        pr = speck_r * rng.uniform(0.8, 1.25)
        pad = int(pr * 3 + 2)
        y0, y1 = max(0, int(sy) - pad), min(h, int(sy) + pad + 1)
        x0, x1 = max(0, int(sx) - pad), min(w, int(sx) + pad + 1)
        if y0 >= y1 or x0 >= x1:
            continue
        yy, xx = np.mgrid[y0:y1, x0:x1]
        d2 = (yy - sy) ** 2 + (xx - sx) ** 2
        blob = amp * np.exp(-0.5 * d2 / pr ** 2)
        blob[d2 > (2.2 * pr) ** 2] = 0.0
        out[y0:y1, x0:x1] = np.maximum(out[y0:y1, x0:x1], blob)
    return out


def _asymmetry_field(dims, center, size_px, irregularity, amp, rng):
    h, w = dims
    sig_a = size_px * 0.55
    sig_b = size_px * (0.25 + 0.25 * irregularity)
    theta = rng.uniform(0, math.pi)
    pad = int(2.4 * sig_a + 2)
    cy, cx = center
    y0, y1 = max(0, int(cy) - pad), min(h, int(cy) + pad + 1)
    x0, x1 = max(0, int(cx) - pad), min(w, int(cx) + pad + 1)
    yy, xx = np.mgrid[y0:y1, x0:x1]
    dy, dx = yy - cy, xx - cx
    a = dy * math.cos(theta) + dx * math.sin(theta)
    b = -dy * math.sin(theta) + dx * math.cos(theta)
    q = (a / sig_a) ** 2 + (b / sig_b) ** 2
    blob = amp * np.exp(-0.5 * q)
    blob[q > 2.2 ** 2] = 0.0
    out = np.zeros(dims)
    out[y0:y1, x0:x1] = blob
    return out


_FIELDS = {"mass": _mass_field,
           "calcification_cluster": _calc_field,
           "asymmetry": _asymmetry_field}


def _lesion_amp(lesion, density_idx, coupling):
    # brightness deliberately carries no class signal; the classes differ in
    # margin structure and speck granularity only
    amp = 6200.0
    amp *= 1.0 - coupling * (density_idx / 3.0) * 0.5
    if lesion.kind == "asymmetry":
        amp *= 0.55
    elif lesion.kind == "calcification_cluster":
        amp *= 2.4
    return amp


def _render_lesion(lesion, frame, density_idx, coupling):
    """Field for one lesion in one view's ``frame``, or None when support
    leaves the breast region. The shape stream restarts per view so both
    views draw the same margin."""
    region, _, _, (cy, ry, rx) = frame
    u, v = lesion.center
    center = cy + v * ry * 0.68, u * rx * 0.80
    amp = _lesion_amp(lesion, density_idx, coupling)
    rng = substream(lesion.shape_seed, "shape")
    fld = _FIELDS[lesion.kind](region.shape, center, lesion.size_px,
                               lesion.irregularity, amp, rng)
    support = fld > 0
    if not support.any() or (support & ~region).any():
        return None
    return fld


def render_exam(spec: ExamSpec, cc_dims, mlo_dims):
    """Render all four views plus per-view benign/malignant masks.

    Returns (images, masks): images keyed by view name, masks keyed by
    (view, malignancy) holding boolean arrays (only nonempty supports).
    Occult findings are never drawn. Raises GeneratorError when a lesion
    cannot be placed inside both of its views after 100 retries.
    """
    geo_rng = substream(spec.seed, "geometry", spec.exam_id)
    geo = {
        "ry_cc": geo_rng.uniform(0.34, 0.44),
        "rx_cc": geo_rng.uniform(0.64, 0.80),
        "ry_mlo": geo_rng.uniform(0.36, 0.46),
        "rx_mlo": geo_rng.uniform(0.58, 0.74),
        "pec_h": geo_rng.uniform(0.30, 0.42),
        "pec_w": geo_rng.uniform(0.22, 0.34),
    }
    base = geo_rng.uniform(14000, 19000)
    contrast = _DENSITY_CONTRAST[spec.density]
    density_idx = DENSITIES.index(spec.density)
    frames = (_frame(cc_dims, False, geo), _frame(mlo_dims, True, geo))

    # resolve lesion placements once per breast against both its views
    drawn = {}   # (side, malignancy) -> [cc field, mlo field]
    for side, breast in (("r", spec.right), ("l", spec.left)):
        for li, lesion in enumerate(() if breast.occult else breast.lesions):
            place_rng = substream(spec.seed, "place", spec.exam_id, side, li)
            for _ in range(101):
                pair = [_render_lesion(lesion, frame, density_idx,
                                       spec.density_coupling)
                        for frame in frames]
                if all(f is not None for f in pair):
                    break
                lesion = replace(lesion, center=(place_rng.uniform(0.2, 0.75),
                                                 place_rng.uniform(-0.5, 0.5)))
            else:
                raise GeneratorError(
                    f"{spec.exam_id}/{side}: lesion does not fit after 100 retries")
            key = (side, lesion.malignancy)
            drawn[key] = [a + b for a, b in zip(drawn.get(key, (0.0, 0.0)),
                                                pair)]

    images, masks = {}, {}
    for view in VIEWS:
        mlo = view.endswith("mlo")
        region, wedge, vignette, _ = frames[mlo]
        flip = np.s_[:, ::-1] if view[0] == "l" else np.s_[:, :]
        tex_rng = substream(spec.seed, "texture", spec.exam_id, view)
        canvas = np.zeros(region.shape)
        canvas[region] = base
        canvas += _texture(region.shape, contrast, tex_rng) * region
        canvas[wedge] += 6000.0
        canvas *= vignette
        for malignancy in ("benign", "malignant"):
            pair = drawn.get((view[0], malignancy))
            if pair is not None:
                canvas += pair[mlo]
                masks[(view, malignancy)] = (pair[mlo] > 0)[flip]
        canvas[~region] = 0.0
        images[view] = np.clip(canvas[flip], 0, MAXVAL).astype(np.uint16)
    return images, masks


def _texture(dims, contrast, rng):
    coarse = gaussian_blur(rng.standard_normal(dims), 3.0)
    fine = gaussian_blur(rng.standard_normal(dims), 1.2)
    return 2600.0 * contrast * (coarse * 1.4 + fine * 0.6)


# ---------------------------------------------------------------------------
# population assembly

def assign_birads(exam, rng, noise_rate=0.0):
    """3-class screening assessment: 0 suspicious, 1 normal, 2 benign-only.

    With probability ``noise_rate`` the category is flipped to a uniformly
    chosen other class, mimicking noisy report-derived labels.
    """
    if not 0.0 <= noise_rate < 1.0:
        raise ValueError("noise_rate must be in [0, 1)")
    if exam.left_malignant or exam.right_malignant:
        cat = 0
    elif exam.left_benign or exam.right_benign:
        cat = 2
    else:
        cat = 1
    if noise_rate > 0.0 and rng.uniform() < noise_rate:
        cat = [c for c in (0, 1, 2) if c != cat][int(rng.integers(0, 2))]
    return cat


def _cdf(p):
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


_AGE_CDF, _DENSITY_CDF, _KIND_CDF = map(_cdf, (_AGE_P, _DENSITY_P, _KIND_P))


def _weighted(rng, cdf):
    """An index drawn from the cumulative probabilities ``cdf`` of ``p``:
    the inverse-CDF draw that ``rng.choice(len(p), p=p)`` makes from the
    same one double, without ``choice``'s per-call validation."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _make_lesions(rng, malignant, benign, min_px, max_px, shape_seed):
    lesions = []
    for i in range(malignant + benign):
        is_mal = i < malignant
        kind = _LESION_KINDS[_weighted(rng, _KIND_CDF)]
        irr = rng.uniform(0.55, 0.95) if is_mal else rng.uniform(0.05, 0.45)
        lesions.append(LesionSpec(
            kind=kind,
            malignancy="malignant" if is_mal else "benign",
            center=(rng.uniform(0.25, 0.72), rng.uniform(-0.5, 0.5)),
            size_px=rng.uniform(min_px, max_px),
            irregularity=irr,
            shape_seed=int(shape_seed + i)))
    return lesions


def build_population(config: DatasetConfig, seed: int):
    """Plan every exam deterministically.

    Biopsy, malignancy, and occult statuses are quota-based (exact counts,
    assigned over a seeded permutation) so realized fractions track the
    config tightly; splits are assigned per patient.

    Three kinds of stream: one ``population`` stream (quotas, patient
    grouping, split order), one ``patient`` stream per patient (age band
    and density), and one ``examplan`` stream per *biopsied* exam (sides,
    findings, lesions). An exam stream is built only where it is read:
    each costs tens of microseconds to seed, and at the paper's 2.5%
    biopsy rate nearly every exam would build one that nothing reads.
    """
    config.validate()
    n = config.exams
    if n == 0:
        return []

    rng = substream(seed, "population")
    order = rng.permutation(n)
    n_biopsied = int(round(n * config.biopsied_fraction))
    b_list = order[:n_biopsied]
    biopsied_ids = set(b_list.tolist())
    n_mal = int(round(n_biopsied * config.malignant_fraction))
    malignant_ids = set(b_list[:n_mal].tolist())
    n_occ = int(round(n_biopsied * config.occult_fraction))
    occult_ids = set(b_list[n_biopsied - n_occ:].tolist()) if n_occ else set()

    patients = []
    i = 0
    pidx = 0
    while i < n:
        size = 2 if (i + 1 < n and rng.uniform() < config.multi_exam_fraction) else 1
        patients.append((pidx, list(range(i, i + size))))
        i += size
        pidx += 1

    # per-patient split assignment chasing exam-count targets
    targets = [f * n for f in config.split_fractions]
    counts = [0.0, 0.0, 0.0]
    split_of_patient = {}
    for pi in rng.permutation(len(patients)):
        pid, exam_idxs = patients[pi]
        deficits = [targets[s] - counts[s] for s in range(3)]
        s = max(range(3), key=deficits.__getitem__)
        split_of_patient[pid] = SPLITS[s]
        counts[s] += len(exam_idxs)

    min_dim = min(min(config.cc_dims), min(config.mlo_dims))
    min_px = config.lesion_frac_range[0] * min_dim
    max_px = config.lesion_frac_range[1] * min_dim

    specs = []
    for pid, exam_idxs in patients:
        prng = substream(seed, "patient", pid)
        age = AGE_BANDS[_weighted(prng, _AGE_CDF)]
        dens = DENSITIES[_weighted(prng, _DENSITY_CDF)]
        for ei in exam_idxs:
            left, right = BreastSpec(), BreastSpec()
            if ei in biopsied_ids:
                erng = substream(seed, "examplan", ei)
                sides = ["L", "R"] if erng.uniform() < config.bilateral_fraction \
                    else [("L", "R")[int(erng.integers(0, 2))]]
                for side in sides:
                    b = left if side == "L" else right
                    b.biopsied = 1
                    is_mal = ei in malignant_ids
                    both = erng.uniform() < config.both_fraction
                    b.malignant = int(is_mal)
                    b.benign = int((not is_mal) or both)
                    b.occult = int(ei in occult_ids)
                    if not b.occult:
                        b.lesions = _make_lesions(
                            erng, b.malignant, b.benign, min_px, max_px,
                            shape_seed=seed * 1000003 + ei * 101 + (side == "L"))
            specs.append(ExamSpec(
                exam_id=f"e{ei:05d}",
                patient_id=f"p{pid:05d}",
                split=split_of_patient[pid],
                age_band=age, density=dens,
                left=left, right=right, seed=seed,
                density_coupling=config.density_coupling))
    specs.sort(key=lambda s: s.exam_id)
    return specs


def generate_dataset(config: DatasetConfig, seed: int, out_dir, jobs=1):
    """Write images, masks, and manifest.csv; byte-identical per (config, seed)."""
    out_dir = Path(out_dir)
    try:
        (out_dir / "images").mkdir(parents=True, exist_ok=True)
        (out_dir / "masks").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise GeneratorError(f"cannot create output dir {out_dir}: {exc}") from exc

    def render(spec):
        images, masks = render_exam(spec, config.cc_dims, config.mlo_dims)
        paths = {}
        for view in VIEWS:
            paths[view] = f"images/{spec.exam_id}_{view}.pgm"
            write_pgm(out_dir / paths[view], images[view])
        for (view, malignancy), m in sorted(masks.items()):
            write_pgm(mask_path(out_dir, spec.exam_id, view, malignancy),
                      m.astype(np.uint8) * 255)
        return paths

    specs = build_population(config, seed)
    all_paths = _map_threads(render, specs, jobs)

    records = []
    for spec, paths in zip(specs, all_paths):
        rec = ExamRecord(
            exam_id=spec.exam_id, patient_id=spec.patient_id, split=spec.split,
            age_band=spec.age_band, density=spec.density,
            **{f"{side}_{flag}": getattr(getattr(spec, side), flag)
               for side in ("left", "right")
               for flag in ("benign", "malignant", "biopsied", "occult")},
            birads=0, view_paths=paths)
        rec.birads = assign_birads(
            rec, substream(seed, "birads", spec.exam_id), config.birads_noise)
        records.append(rec)

    write_manifest(out_dir / "manifest.csv", records)
    return records


def write_manifest(path, records):
    write_table(path, MANIFEST_HEADER, ((
        r.exam_id, r.patient_id, r.split, r.age_band, r.density,
        r.left_benign, r.left_malignant, r.right_benign, r.right_malignant,
        r.left_biopsied, r.right_biopsied, r.left_occult, r.right_occult,
        r.birads, *(r.view_paths[v] for v in VIEWS))
        for r in records))


# each coded column's codes: split names, 0/1 labels and flags, 0-2 birads
_MANIFEST_CODES = {"split": dict(zip(SPLITS, SPLITS)), **{
    f.name: {"0": 0, "1": 1} for f in fields(ExamRecord) if f.type == "int"},
    "birads": {"0": 0, "1": 1, "2": 2}}


def load_manifest(path):
    """The exam records of a manifest, checked as a table (see
    ``formats``), then for a repeated exam id."""
    columns, where = read_table(path, MANIFEST_HEADER)
    values = []
    for c in _COLUMNS:
        codes = _MANIFEST_CODES.get(c)
        values.append(columns[c] if codes is None else checked(
            columns[c], codes.get, where,
            f"{c} {{!r}} is not one of {', '.join(codes)}"))
    ids, first = columns["exam_id"], {}   # exam id -> its first row
    if len(set(ids)) < len(ids):
        i = next(i for i, e in enumerate(ids) if first.setdefault(e, i) != i)
        raise FormatError(f"{where(i)}: exam id {ids[i]!r} is repeated")
    paths = (dict(zip(VIEWS, p))
             for p in zip(*(columns[f"{v}_path"] for v in VIEWS)))
    return [ExamRecord(*row) for row in zip(*values, paths)]


def image_path(data_dir, record, view):
    return Path(data_dir) / record.view_paths[view]


def load_image(data_dir, record, view):
    """A view image as float32 in [0, 1]."""
    return read_pgm(image_path(data_dir, record, view)).astype(np.float32) / MAXVAL


def mask_path(data_dir, exam_id, view, malignancy):
    return Path(data_dir) / "masks" / f"{exam_id}_{view}_{malignancy}.pgm"


def mask_points(data_dir, record, view):
    """A view's lesion pixels as (ys, xs) index arrays by malignancy,
    malignant first; a missing mask file means an empty support."""
    points = {}
    for malignancy in ("malignant", "benign"):
        path = mask_path(data_dir, record.exam_id, view, malignancy)
        points[malignancy] = np.nonzero(read_pgm(path)) if path.exists() \
            else (np.empty(0, np.intp),) * 2
    return points
