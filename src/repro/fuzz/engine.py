"""The fuzz campaign: sample schedules, run, judge, shrink, persist.

Each fuzz seed becomes one :class:`~repro.experiments.campaign.Job`
and runs through the ordinary
:class:`~repro.experiments.runner.CampaignRunner` — same process pool,
same deterministic in-order reassembly, same metrics pipeline (which
now carries the invariant oracle's verdict).  On top of that, this
module:

* classifies violations into *unexpected* (a real find: the protocol
  or simulator broke an invariant) and *expected counterexamples*
  (deliberate naive-accounting runs violating Definition 1 — the
  fuzzer demonstrating Appendix C);
* shrinks every failing schedule to a minimal replayable spec and
  writes it to a corpus directory;
* emits a fully deterministic report: same seeds → byte-identical
  JSON (wall-clock timings are deliberately excluded).
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.campaign import Job
from repro.experiments.runner import CampaignRunner, run_job
from repro.experiments.spec import save_scenario, spec_to_mapping
from repro.fuzz.generator import DEFAULT_PROFILE, FuzzProfile, generate_spec
from repro.fuzz.shrink import shrink_spec
from repro.obs import write_flight_dump


def parse_seed_range(text: str) -> tuple:
    """``"0:50"`` → seeds 0..49; ``"7"`` → (7,); ``"1,5,9"`` → as given."""
    text = text.strip()
    if ":" in text:
        low_text, high_text = text.split(":", 1)
        low, high = int(low_text), int(high_text)
        if high <= low:
            raise ValueError(f"empty seed range {text!r}")
        return tuple(range(low, high))
    if "," in text:
        return tuple(int(part) for part in text.split(",") if part.strip())
    return (int(text),)


def fuzz_jobs(seeds, profile: FuzzProfile = DEFAULT_PROFILE) -> list:
    """One campaign job per fuzz seed (specs sampled deterministically)."""
    jobs = []
    for seed in seeds:
        spec = generate_spec(seed, profile)
        jobs.append(
            Job(
                job_id=f"fuzz-{profile.name}/seed={seed}",
                spec=spec,
                seed=seed,
                params={"fuzz_seed": seed},
            )
        )
    return jobs


def evaluate_case(spec, seed) -> dict:
    """Run one schedule and return its full job entry (oracle included)."""
    return run_job(Job(job_id=f"fuzz/{spec.name}", spec=spec, seed=seed))


def _case_entry(entry: dict, spec) -> dict:
    invariants = entry["metrics"]["invariants"]
    return {
        "seed": entry["seed"],
        "name": spec.name,
        "spec": spec_to_mapping(spec),
        "ok": invariants["ok"],
        "violations": invariants["violations"],
        "commits": entry["metrics"]["commits"],
    }


def run_fuzz(
    seeds,
    profile: FuzzProfile = DEFAULT_PROFILE,
    workers: int = 1,
    corpus_dir=None,
    shrink: bool = True,
    progress=None,
) -> dict:
    """Fuzz every seed and return the deterministic campaign report.

    Violating schedules are shrunk to minimal replayable specs; when
    ``corpus_dir`` is given, each minimized spec is written there as
    ``<case-name>-min.json``.  ``progress`` is forwarded to the
    underlying :class:`CampaignRunner`.
    """
    seeds = tuple(seeds)
    jobs = fuzz_jobs(seeds, profile)
    results = CampaignRunner(
        jobs, workers=workers, name=f"fuzz-{profile.name}"
    ).run(progress=progress)

    cases = []
    minimized = []
    flight_dumps = []
    unexpected = 0
    expected = 0
    for job, entry in zip(jobs, results["jobs"]):
        case = _case_entry(entry, job.spec)
        violations = case["violations"]
        if violations:
            if all(violation["expected"] for violation in violations):
                expected += 1
            else:
                unexpected += 1
            recording = entry.get("flight_recording")
            if recording is not None and corpus_dir is not None:
                directory = Path(corpus_dir)
                directory.mkdir(parents=True, exist_ok=True)
                dump_path = directory / f"{job.spec.name}-flight.json"
                write_flight_dump(recording, dump_path)
                case["flight_dump"] = dump_path.name
                flight_dumps.append(dump_path.name)
            if shrink:
                result = shrink_spec(
                    job.spec, seed=entry["seed"], violations=violations
                ).renamed(f"{job.spec.name}-min")
                case["minimized_spec"] = spec_to_mapping(result.spec)
                case["shrink_attempts"] = result.attempts
                if corpus_dir is not None:
                    directory = Path(corpus_dir)
                    directory.mkdir(parents=True, exist_ok=True)
                    out_path = directory / f"{result.spec.name}.json"
                    save_scenario(result.spec, out_path)
                    minimized.append(out_path.name)
        cases.append(case)

    return {
        "fuzzer": f"fuzz-{profile.name}",
        "profile": profile.name,
        "seeds": list(seeds),
        "cases": cases,
        "digests": {
            job.spec.name: results["digests"][job.job_id] for job in jobs
        },
        "summary": {
            "cases": len(cases),
            "unexpected_violations": unexpected,
            "expected_counterexamples": expected,
            "minimized": minimized,
            "flight_dumps": flight_dumps,
        },
    }
