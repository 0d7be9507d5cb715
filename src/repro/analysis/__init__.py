"""Analysis and reporting: turns raw campaign / validation data into the
tables and figure series of the paper's evaluation section.
"""

from repro.analysis.agreement import AgreementCell, AgreementMatrix, compute_agreement
from repro.analysis.figures import (
    build_fig5_cdf,
    build_fig6_series,
    build_fig7_series,
)
from repro.analysis.middlebox import (
    HostDiagnosis,
    MiddleboxTaxonomy,
    classify_middleboxes,
)
from repro.analysis.report import format_table
from repro.analysis.scenarios import (
    ScenarioComparison,
    ScenarioSliceSummary,
    agreement_by_scenario,
    compare_scenarios,
    fig5_by_scenario,
    slice_by_scenario,
    summarize_scenario_slice,
)
from repro.analysis.streaming import StreamingSurvey, stream_survey, survey_from_store
from repro.analysis.survey import EligibilitySummary, summarize_eligibility
from repro.analysis.validation import validation_table

__all__ = [
    "AgreementCell",
    "AgreementMatrix",
    "EligibilitySummary",
    "HostDiagnosis",
    "MiddleboxTaxonomy",
    "ScenarioComparison",
    "ScenarioSliceSummary",
    "StreamingSurvey",
    "agreement_by_scenario",
    "build_fig5_cdf",
    "classify_middleboxes",
    "build_fig6_series",
    "build_fig7_series",
    "compare_scenarios",
    "compute_agreement",
    "fig5_by_scenario",
    "format_table",
    "slice_by_scenario",
    "stream_survey",
    "summarize_eligibility",
    "summarize_scenario_slice",
    "survey_from_store",
    "validation_table",
]
