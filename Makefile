# Development gates. `make check` is what CI runs.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test lint typecheck audit bench-smoke faults-smoke consistency-smoke obs-smoke scenario-smoke

check: test lint typecheck

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.analysis.lint src/repro

# mypy is optional tooling: run it when installed, skip loudly when not
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping typecheck (pip install -e .[check])"; \
	fi

audit:
	$(PYTHON) -c "from repro.experiments.cli import audit_main; import sys; sys.exit(audit_main([]))"

# tiny benchmark run: crash-detection for the harness and fast paths,
# not a measurement (see docs/PERFORMANCE.md for real runs).  The
# scaling section exercises the cohort executor at 8 and 64 clients,
# cross-checks process-vs-cohort metric identity, and runs one mega
# point (16,384 clients, 2 shards vs. unsharded); its JSON lands in
# bench-scaling-smoke.json, which CI's determinism gate reads (the
# committed BENCH_scaling.json is the real measurement and is never
# overwritten here).
bench-smoke:
	$(PYTHON) -m repro.experiments.bench --smoke --workers 2 \
		--label ci-smoke --output bench-smoke.json
	$(PYTHON) -m repro.experiments.bench --smoke --sections scaling \
		--label ci-smoke-scaling --output bench-scaling-smoke.json

# fault-injection resilience report (docs/FAULTS.md): doze through a
# full wrap window, crash the server mid-run, drop uplink submissions —
# then audit every protocol invariant AND certify the recorded history
# update-consistent.  Exits non-zero on any audit or consistency
# violation.
faults-smoke:
	$(PYTHON) -m repro.experiments.cli faults --transactions 40 \
		--seed 42 --output faults-smoke.json

# observability smoke (docs/OBSERVABILITY.md): one traced faulted
# 2-shard run producing a Perfetto-loadable Chrome trace
# (obs-trace.json) whose span counts reconcile with the metrics, plus a
# traced-vs-untraced wall-clock comparison (obs-overhead.json).  The
# overhead bound is checked warn-only in CI.
obs-smoke:
	$(PYTHON) -m repro.obs.trace_cli run --out obs-trace.json --summary
	$(PYTHON) -m repro.obs.trace_cli summarize obs-trace.json
	$(PYTHON) -m repro.obs.trace_cli overhead --repeats 3 \
		--output obs-overhead.json

# scenario smoke (docs/SCENARIOS.md): run every library scenario under
# every protocol it declares and check its calibrated metric envelope,
# then prove the record/replay determinism contract by recording the
# zero-fault anchor under the process executor and replaying it
# bit-identically through the cohort executor.  Exits non-zero on any
# envelope miss or replay divergence; JSON lands in scenario-smoke.json.
scenario-smoke:
	$(PYTHON) -m repro.experiments.cli scenario run --all \
		--output scenario-smoke.json
	$(PYTHON) -m repro.experiments.cli scenario record table1-baseline \
		--out scenario-smoke-table1.trace.json
	$(PYTHON) -m repro.experiments.cli scenario replay \
		scenario-smoke-table1.trace.json --executor cohort

# consistency smoke (docs/ANALYSIS.md "Consistency levels"): the
# small-scope model checker exhaustively sweeps the smallest scope for
# every protocol, then one seeded simulation per protocol is certified —
# all six levels for datacycle (globally serializable), the paper's
# update-consistency guarantee for all three.  Exits non-zero on any
# uncertified run; JSON artifacts land in consistency-smoke-*.json.
consistency-smoke:
	$(PYTHON) -m repro.analysis.consistency.explore --scope smallest \
		--output consistency-smoke-explore.json
	$(PYTHON) -c "from repro.experiments.cli import audit_main; import sys; \
		sys.exit(audit_main(['--protocol', 'datacycle', '--transactions', '40', \
		'--objects', '20', '--consistency', 'all', '--consistency', 'update']))"
	$(PYTHON) -c "from repro.experiments.cli import audit_main; import sys; \
		sys.exit(audit_main(['--protocol', 'f-matrix', '--transactions', '40', \
		'--objects', '20', '--consistency', 'update', '--format', 'json']))" \
		> consistency-smoke-fmatrix.json
	$(PYTHON) -c "from repro.experiments.cli import audit_main; import sys; \
		sys.exit(audit_main(['--protocol', 'r-matrix', '--transactions', '40', \
		'--objects', '20', '--consistency', 'update', '--format', 'json']))" \
		> consistency-smoke-rmatrix.json
