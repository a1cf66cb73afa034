# Convenience targets for the unXpec reproduction.

PYTHON ?= python

.PHONY: install test bench bench-core coverage experiments report quick-report campaign-smoke campaign-fault-smoke campaign-top invariance-smoke stats examples lint specct-smoke clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Core hot-path microbenchmark (docs/performance.md): times one fig3
# attack round and synthetic-workload execution, rewrites BENCH_core.json,
# and fails if the calibration-normalized metrics regressed >25% against
# the committed baseline.
bench-core:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_core.py -q
	@$(PYTHON) -c "import json; d = json.load(open('BENCH_core.json')); \
	    m, s = d['measured'], d['speedup_vs_seed']; \
	    print('bench-core: %.3f ms/round (%.2fx vs seed), %.0f inst/s (%.2fx), unsafe %.0f inst/s' % \
	    (m['fig3_round_ms'], s['fig3_round_normalized'], \
	     m['synthetic_ips'], s['synthetic_ips_normalized'], m['synthetic_unsafe_ips']))"

experiments:
	$(PYTHON) -m repro.experiments all

report:
	$(PYTHON) -m repro.experiments report --out REPORT.md

quick-report:
	$(PYTHON) -m repro.experiments report --quick --out REPORT.md

# Campaign engine smoke: the full quick report on 1 and 2 workers, no
# cache, then assert the merged stats sections and the canonical event
# streams are bit-identical (the docs/campaign.md determinism contract),
# render each stats dump as OpenMetrics + folded stacks with
# `python -m repro.obs` (the two .prom files must match too), and check
# that the events stream renders in campaign_top. CI uploads the
# artifacts (reports, stats, OpenMetrics, events).
campaign-smoke:
	$(PYTHON) -m repro.experiments report --quick --jobs 1 --no-cache \
	    --out REPORT-campaign-jobs1.md --stats-out campaign-stats-jobs1.json \
	    --events-out campaign-events-jobs1.jsonl
	$(PYTHON) -m repro.experiments report --quick --jobs 2 --no-cache \
	    --out REPORT-campaign-jobs2.md --stats-out campaign-stats-jobs2.json \
	    --events-out campaign-events-jobs2.jsonl
	$(PYTHON) -c "import json; a, b = (json.load(open(p)) for p in \
	    ('campaign-stats-jobs1.json', 'campaign-stats-jobs2.json')); \
	    assert a['stats'] == b['stats'], \
	    'jobs=1 vs jobs=2 stats diverged'; \
	    print('campaign-smoke: jobs-invariant')"
	PYTHONPATH=src $(PYTHON) -c "from repro.campaign.events import read_events, canonical_events; \
	    import json; a, b = (canonical_events(read_events(p)) for p in \
	    ('campaign-events-jobs1.jsonl', 'campaign-events-jobs2.jsonl')); \
	    assert a == b, 'jobs=1 vs jobs=2 canonical event streams diverged'; \
	    print('campaign-smoke: canonical events jobs-invariant')"
	for j in 1 2; do \
	    $(PYTHON) -m repro.obs campaign-stats-jobs$$j.json --format openmetrics \
	        > campaign-metrics-jobs$$j.prom || exit 1; \
	    $(PYTHON) -m repro.obs campaign-stats-jobs$$j.json --format folded \
	        > campaign-metrics-jobs$$j.prom.folded || exit 1; \
	done
	cmp campaign-metrics-jobs1.prom campaign-metrics-jobs2.prom
	@echo 'campaign-smoke: OpenMetrics renders jobs-invariant'
	$(PYTHON) -m repro.tools.campaign_top campaign-events-jobs2.jsonl

# Per-experiment invariance smoke: one experiment (EXP=<id>) at quick
# scale on 1 and 4 workers, no cache. The experiment's own checks must
# pass (the CLI exits non-zero otherwise) and the two result JSONs must be
# byte-identical (the campaign determinism contract, docs/campaign.md).
# CI runs it for matrix (docs/matrix.md), ext_rewind and ext_interference
# (docs/channels.md) and synth (docs/static-analysis.md), and uploads
# REPORT-$(EXP).md and $(EXP)-jobs1.json.
EXP ?= matrix
invariance-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments $(EXP) --quick --jobs 1 --no-cache \
	    --json $(EXP)-jobs1.json > REPORT-$(EXP).md
	@cat REPORT-$(EXP).md
	PYTHONPATH=src $(PYTHON) -m repro.experiments $(EXP) --quick --jobs 4 --no-cache \
	    --json $(EXP)-jobs4.json
	$(PYTHON) -c "import json; a, b = (json.load(open(p)) for p in \
	    ('$(EXP)-jobs1.json', '$(EXP)-jobs4.json')); \
	    assert a == b, '$(EXP) results diverged across jobs counts'; \
	    print('invariance-smoke: $(EXP) jobs-invariant')"

# Live dashboard over an --events-out stream (EVENTS=path to override).
EVENTS ?= campaign-events.jsonl
campaign-top:
	$(PYTHON) -m repro.tools.campaign_top $(EVENTS) --follow

# Fault-injection smoke (docs/campaign.md "Failure model"): force every
# fig9 shard down, then assert the campaign still finishes, exits
# non-zero, marks exactly fig9 FAILED with a traceback section, and no
# other experiment's row regressed.
campaign-fault-smoke:
	@REPRO_FAULT_INJECT='fig9:*:*:AssertionError' \
	    $(PYTHON) -m repro.experiments report --quick --jobs 4 --no-cache \
	    --retries 0 --out REPORT-faults.md; \
	    status=$$?; \
	    if [ $$status -eq 0 ]; then echo 'FAIL: expected non-zero exit'; exit 1; fi; \
	    echo "campaign-fault-smoke: exit code $$status (non-zero, as required)"
	@$(PYTHON) -c "import sys; \
	    text = open('REPORT-faults.md').read(); \
	    rows = [l for l in text.splitlines() if l.startswith('| \`')]; \
	    failed = [l for l in rows if 'FAILED' in l]; \
	    assert len(failed) == 1 and 'fig9' in failed[0], failed; \
	    assert '<details>' in text and 'AssertionError' in text, 'no traceback section'; \
	    bad = [l for l in rows if 'FAIL' in l and 'fig9' not in l]; \
	    assert not bad, 'other experiments regressed: %r' % bad; \
	    print('campaign-fault-smoke: FAILED row isolated to fig9, others pass')"

stats:
	$(PYTHON) -m repro.experiments fig3 --quick --stats-out stats.json
	$(PYTHON) -m repro.obs stats.json --profile

# Repo lint: the AST determinism checker (always), then ruff if it is
# installed (CI installs it; locally it is optional).
lint:
	PYTHONPATH=src $(PYTHON) -m repro.tools.lint_determinism src/repro
	PYTHONPATH=src $(PYTHON) -m repro.tools.lint_determinism --only DET007 tests
	@if command -v ruff >/dev/null 2>&1; then \
	    ruff check .; \
	else \
	    echo "ruff not installed; skipping style lint (CI runs it)"; \
	fi

# Static-analyzer smoke: the gadget/workload/fig3 cross-validation suite
# (every gadget flagged, every safe workload clean, static cache-delta
# sign agrees with the dynamic timing delta), plus one example lint of
# the paper's gadget via the main CLI alias.
specct-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.specct --crossval --quick
	PYTHONPATH=src $(PYTHON) -m repro.experiments lint-program gadget:round --n-loads 2; \
	    status=$$?; \
	    if [ $$status -ne 1 ]; then \
	        echo "FAIL: expected exit 1 (findings) for the gadget, got $$status"; exit 1; \
	    fi; \
	    echo "specct-smoke: gadget flagged (exit 1), cross-validation passed"

# Line-coverage floor over the core (src/repro/cpu), the decoded-program
# tables (src/repro/isa/decoded.py) and the analyzer; uses coverage.py when
# installed, else a stdlib tracer. Writes COVERAGE.json (CI artifact).
coverage:
	PYTHONPATH=src $(PYTHON) -m repro.tools.coverage_gate --out COVERAGE.json

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/asm_victim.py
	$(PYTHON) examples/spectre_vs_cleanupspec.py
	$(PYTHON) examples/eviction_set_construction.py
	$(PYTHON) examples/timeline_visualizer.py
	$(PYTHON) examples/covert_channel_demo.py
	$(PYTHON) examples/mitigation_tradeoff.py

clean:
	rm -rf .pytest_cache .hypothesis build dist *.egg-info REPORT.md REPORT-faults.md
	rm -f REPORT-campaign-jobs*.md campaign-stats-jobs*.json \
	    campaign-metrics-jobs*.prom campaign-metrics-jobs*.prom.folded \
	    campaign-events-jobs*.jsonl \
	    $(foreach e,matrix ext_rewind ext_interference synth,REPORT-$(e).md $(e)-jobs*.json)
	find . -name __pycache__ -type d -exec rm -rf {} +
