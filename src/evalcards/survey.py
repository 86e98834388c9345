"""Attitudinal data: per-component Likert ratings and SUS responses.

Each participant rates every component they are surveyed on twice on a
5-point scale (1 = "Very Hard", 5 = "Very Easy"): perceived efficiency (how
hard they had to work) and perceived effectiveness (how hard it was to
accomplish the task). The two series are kept separate end to end. A
standard 10-item SUS questionnaire yields one 0..100 usability score per
participant.

Box summaries use Tukey hinges: medians of the lower and upper halves of
the sorted data, with the median included in both halves when the count is
odd. Hinges are interpolation-free, so the same inputs give the same
summary everywhere.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import EvalCardsError, decode_utf8
from .taxonomy import ComponentModel

__all__ = [
    "ComponentRating",
    "SusResponse",
    "BoxStats",
    "ComponentAttitude",
    "sus_score",
    "likert_box",
    "component_attitudes",
    "load_ratings_csv",
    "load_sus_csv",
    "sus_scores_by_user",
]

LIKERT_MIN, LIKERT_MAX = 1, 5
SUS_ITEM_COUNT = 10


class SurveyError(EvalCardsError):
    pass


class EmptyRatings(SurveyError):
    pass


class UnknownComponent(SurveyError):
    pass


class SurveyFormatError(SurveyError):
    pass


def _check_likert(value: int, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SurveyFormatError(f"{what} must be an integer, got {value!r}")
    if not LIKERT_MIN <= value <= LIKERT_MAX:
        raise SurveyFormatError(f"{what} must be in {LIKERT_MIN}..{LIKERT_MAX}, got {value}")
    return value


@dataclass(frozen=True)
class ComponentRating:
    """One participant's two Likert scores for one terminal component."""

    user_id: str
    comp_id: str
    efficiency: int
    effectiveness: int

    def __post_init__(self):
        _check_likert(self.efficiency, f"efficiency for {self.user_id}/{self.comp_id}")
        _check_likert(self.effectiveness, f"effectiveness for {self.user_id}/{self.comp_id}")


@dataclass(frozen=True)
class SusResponse:
    """One participant's answers to the ten SUS items, in order."""

    user_id: str
    items: tuple[int, ...]

    def __post_init__(self):
        if len(self.items) != SUS_ITEM_COUNT:
            raise SurveyFormatError(
                f"SUS response for {self.user_id!r} has {len(self.items)} items; "
                f"exactly {SUS_ITEM_COUNT} required"
            )
        for i, item in enumerate(self.items, start=1):
            _check_likert(item, f"SUS item q{i} for {self.user_id}")


def sus_score(response: SusResponse) -> float:
    """Aggregate a SUS response to a usability score in [0, 100].

    Odd items (q1, q3, ...) are positively framed and contribute
    ``item - 1``; even items are negatively framed and contribute
    ``5 - item``. The sum of contributions is scaled by 2.5.
    """
    total = 0
    for i, item in enumerate(response.items, start=1):
        total += (item - 1) if i % 2 == 1 else (5 - item)
    return total * 2.5


def sus_scores_by_user(responses: Iterable[SusResponse]) -> dict[str, float]:
    scores: dict[str, float] = {}
    for response in responses:
        if response.user_id in scores:
            raise SurveyFormatError(f"duplicate SUS response for user {response.user_id!r}")
        scores[response.user_id] = sus_score(response)
    return scores


# --------------------------------------------------------------------------
# Box summaries
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary with Tukey hinges and 1.5-IQR whiskers."""

    n: int
    minimum: float
    lower_hinge: float
    median: float
    upper_hinge: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "min": self.minimum,
            "lower_hinge": self.lower_hinge,
            "median": self.median,
            "upper_hinge": self.upper_hinge,
            "max": self.maximum,
            "whisker_low": self.whisker_low,
            "whisker_high": self.whisker_high,
            "outliers": list(self.outliers),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "BoxStats":
        return cls(
            n=int(data["n"]),
            minimum=float(data["min"]),
            lower_hinge=float(data["lower_hinge"]),
            median=float(data["median"]),
            upper_hinge=float(data["upper_hinge"]),
            maximum=float(data["max"]),
            whisker_low=float(data["whisker_low"]),
            whisker_high=float(data["whisker_high"]),
            outliers=tuple(float(v) for v in data["outliers"]),
        )


def _median_sorted(data: Sequence[float]) -> float:
    n = len(data)
    mid = n // 2
    if n % 2 == 1:
        return float(data[mid])
    return (data[mid - 1] + data[mid]) / 2.0


def likert_box(values: Iterable[float]) -> BoxStats:
    """Summarize ratings with median, Tukey hinges, whiskers, and outliers.

    The lower (upper) hinge is the median of the lower (upper) half of the
    sorted data; for an odd count the overall median belongs to both
    halves. Whisker ends sit on the most extreme points within
    1.5 x (upper hinge - lower hinge) of the hinges; points beyond are
    outliers.
    """
    data = sorted(float(v) for v in values)
    n = len(data)
    if n == 0:
        raise EmptyRatings("cannot summarize an empty rating list")

    median = _median_sorted(data)
    mid = n // 2
    if n % 2 == 1:
        lower_half = data[: mid + 1]
        upper_half = data[mid:]
    else:
        lower_half = data[:mid]
        upper_half = data[mid:]
    lower_hinge = _median_sorted(lower_half) if lower_half else median
    upper_hinge = _median_sorted(upper_half) if upper_half else median

    reach = 1.5 * (upper_hinge - lower_hinge)
    low_fence = lower_hinge - reach
    high_fence = upper_hinge + reach
    inside = [v for v in data if low_fence <= v <= high_fence]
    outliers = tuple(v for v in data if v < low_fence or v > high_fence)
    # A non-empty list always has points inside the fences (the hinges are).
    whisker_low = min(inside)
    whisker_high = max(inside)

    return BoxStats(
        n=n,
        minimum=data[0],
        lower_hinge=float(lower_hinge),
        median=float(median),
        upper_hinge=float(upper_hinge),
        maximum=data[-1],
        whisker_low=float(whisker_low),
        whisker_high=float(whisker_high),
        outliers=outliers,
    )


# --------------------------------------------------------------------------
# Per-component attitudes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentAttitude:
    """Efficiency/effectiveness summaries for one component, or no_data."""

    comp_id: str
    efficiency: BoxStats | None
    effectiveness: BoxStats | None

    @property
    def no_data(self) -> bool:
        return self.efficiency is None


def _not_in_model(comp_id: str, model: ComponentModel) -> UnknownComponent:
    return UnknownComponent(
        f"rating for comp_id {comp_id!r} which is not in model {model.system_name!r}"
    )


def component_attitudes(
    ratings: Iterable[ComponentRating], model: ComponentModel
) -> dict[str, ComponentAttitude]:
    """Summarize ratings per terminal component, in canonical order.

    Output covers exactly the model's component set; components nobody
    rated are flagged ``no_data`` rather than omitted.
    """
    by_comp: dict[str, list[ComponentRating]] = {c: [] for c in model.comp_ids}
    for rating in ratings:
        if rating.comp_id not in by_comp:
            raise _not_in_model(rating.comp_id, model)
        by_comp[rating.comp_id].append(rating)

    out: dict[str, ComponentAttitude] = {}
    for comp_id in model.comp_ids:
        rows = by_comp[comp_id]
        if rows:
            out[comp_id] = ComponentAttitude(
                comp_id=comp_id,
                efficiency=likert_box(r.efficiency for r in rows),
                effectiveness=likert_box(r.effectiveness for r in rows),
            )
        else:
            out[comp_id] = ComponentAttitude(comp_id=comp_id, efficiency=None, effectiveness=None)
    return out


# --------------------------------------------------------------------------
# CSV interchange
# --------------------------------------------------------------------------

RATINGS_HEADER = ["user_id", "comp_id", "efficiency", "effectiveness"]
SUS_HEADER = ["user_id"] + [f"q{i}" for i in range(1, SUS_ITEM_COUNT + 1)]


def _int_field(name: str, value: str) -> int:
    text = value.strip()
    try:
        return int(text)
    except ValueError:
        raise SurveyFormatError(f"{name} must be an integer, got {text!r}") from None


def _read_table(path: str | Path, header: list[str], record: Callable[[list[str]], Any]) -> list:
    """One ``record(cells)`` per non-blank row of a survey CSV.

    The file is read and decoded once. The header and every row's field
    count are checked here; ``record`` checks the cells. Each error names
    the path once, and an error in a row names the row.
    """
    records: list = []
    where = ""
    try:
        text = decode_utf8(Path(path).read_bytes(), SurveyFormatError)
        rows = csv.reader(io.StringIO(text, newline=""))
        first = next(rows, None)
        if first is None or [h.strip() for h in first] != header:
            raise SurveyFormatError(f"header must be {','.join(header)}, got {first}")
        for row_no in count(2):
            where = f"row {row_no}: "
            row = next(rows, None)
            if row is None:
                return records
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise SurveyFormatError(f"expected {len(header)} fields")
            records.append(record(row))
    except (SurveyError, csv.Error) as exc:
        raise SurveyFormatError(f"{path}: {where}{exc}") from None


def load_ratings_csv(path: str | Path, *, model: ComponentModel | None = None) -> list[ComponentRating]:
    """Read per-component ratings; malformed rows are hard errors. Given
    ``model``, a rating of a component that the model lacks is one too, and
    its error names the row."""

    def rating(row: list[str]) -> ComponentRating:
        scores = [_int_field(name, cell) for name, cell in zip(RATINGS_HEADER[2:], row[2:])]
        out = ComponentRating(row[0].strip(), row[1].strip(), *scores)
        if model is not None and out.comp_id not in model.index:
            raise _not_in_model(out.comp_id, model)
        return out

    return _read_table(path, RATINGS_HEADER, rating)


def load_sus_csv(path: str | Path) -> list[SusResponse]:
    """Read SUS responses (user_id, q1..q10); malformed rows and a second
    response from the same user are hard errors."""
    seen: set[str] = set()

    def response(row: list[str]) -> SusResponse:
        items = tuple(_int_field(f"q{i}", cell) for i, cell in enumerate(row[1:], 1))
        response = SusResponse(user_id=row[0].strip(), items=items)
        if response.user_id in seen:
            raise SurveyFormatError(f"duplicate SUS response for user {response.user_id!r}")
        seen.add(response.user_id)
        return response

    return _read_table(path, SUS_HEADER, response)
