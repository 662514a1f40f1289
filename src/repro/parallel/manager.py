"""The thread-per-shard process manager.

:class:`ParallelProcessManager` specializes the sequential
:class:`~repro.scheduler.manager.ProcessManager` along two axes, both
preserving byte-identical schedules at the same seed (parked requests,
flights and execution gating are the sequential manager's own):

* **batch lock acquisition** — a process pre-declares its next
  ``batch_k`` ready activity types, the protocol probes the Comp-Rule
  verdict for each (read-only), and the coordinator then replays the
  grantable prefix through the exact sequential per-activity order:
  launch → classify → grant → start.  The probe is valid across the
  whole prefix because the only protocol mutation inside it is the
  requester's *own* C acquisitions, which the probe excludes by pid.
  A non-grantable verdict falls back to the full per-lock request
  path for that activity — byte-identical by construction.
* **worker fan-out** — when a probe spans several shard groups that are
  all large enough (``REPRO_PARALLEL_FANOUT`` locks), the per-group
  probes run concurrently on the shards' owning workers; the
  coordinator blocks for all results and applies the grants itself in
  program order.  That fork-join is the deterministic cross-shard
  commit-ordering stage: workers only ever *read*, all mutation stays
  on the coordinator, in the sequential order.
"""

from __future__ import annotations

from repro import config as repro_config
from repro.parallel.executor import ShardExecutor
from repro.process.instance import Process
from repro.process.state import ProcessState
from repro.scheduler.events import ParkedRequest, RequestKind
from repro.scheduler.manager import ProcessManager


class ParallelProcessManager(ProcessManager):
    """Thread-per-shard manager with batch lock acquisition.

    Requires a protocol exposing the batch probe interface
    (``probe_c_grants`` / ``grant_c_direct``);
    :func:`~repro.scheduler.manager.make_manager` checks and falls back
    to the sequential manager otherwise.
    """

    def __init__(
        self,
        protocol,
        subsystems=None,
        config=None,
        seed: int = 0,
        tracer=None,
    ) -> None:
        super().__init__(
            protocol,
            subsystems=subsystems,
            config=config,
            seed=seed,
            tracer=tracer,
        )
        table = protocol.table
        names = table.shard_names()
        self._batch_k = max(1, self.config.batch_k)
        n_workers = max(1, min(self.config.workers, max(1, len(names))))
        #: shard name -> owning worker index (deterministic round-robin).
        self._assignment = table.assign_workers(n_workers)
        self._executor = ShardExecutor(n_workers)
        #: Minimum per-group shard size before a probe is shipped to the
        #: workers.  Unset, fan-out is disabled: on a GIL build the
        #: probes are pure-Python CPU work, so cross-thread dispatch can
        #: only add latency — the workers still own their shards' audits
        #: (:meth:`_run_audit`).  Free-threaded builds (or tests pinning
        #: the dispatch path) opt in via ``REPRO_PARALLEL_FANOUT=N``
        #: (resolved through :mod:`repro.config`).
        self._fanout_threshold = repro_config.parallel_fanout()

    def close(self) -> None:
        self._executor.close()

    # ------------------------------------------------------------------
    # forward progress (batch fast path)
    # ------------------------------------------------------------------
    def _step(self, process: Process) -> None:
        if process.state.is_terminal:
            return
        while True:
            ready = process.ready_activities()
            if not ready:
                break
            if self._batch_step(process, ready):
                continue
            activity = process.launch(ready[0])
            mode = self.protocol.classify_regular(process, activity)
            self._request_regular(process, activity, mode)
        if process.finished and not self._has_parked_commit(process):
            self._request_commit(process)

    def _batch_step(self, process: Process, ready) -> bool:
        """Acquire the grantable C-prefix of the next ``batch_k`` ready
        activities in one probe round-trip.

        Returns whether anything was consumed; ``False`` sends the
        caller down the plain per-activity path for ``ready[0]``
        (identical to the sequential manager).  After a ``True`` the
        caller re-reads the ready set, exactly like the sequential loop
        does after every request.
        """
        prefix = self._predicted_c_prefix(process, ready[: self._batch_k])
        if not prefix:
            return False
        verdicts = self._probe(process, prefix)
        consumed = False
        for name in prefix:
            if not verdicts.get(name):
                break
            activity = process.launch(name)
            mode = self.protocol.classify_regular(process, activity)
            self._apply_decision(
                self.protocol.grant_c_direct(process, activity),
                ParkedRequest(
                    kind=RequestKind.REGULAR,
                    process=process,
                    activity=activity,
                    mode=mode,
                    parked_at=self.engine.now,
                ),
            )
            consumed = True
        return consumed

    def _predicted_c_prefix(self, process: Process, names) -> list[str]:
        """The longest prefix of ``names`` predicted to classify as C.

        Replays :meth:`ProcessLockManager.classify_regular`'s Wcc
        accounting against the program's threshold without mutating
        the process, so the prediction is the classification.
        """
        if process.state is not ProcessState.RUNNING:
            return []
        registry = self.protocol.registry
        cost_based = self.protocol.cost_based
        threshold = process.program.wcc_threshold
        wcc = process.wcc
        prefix: list[str] = []
        for name in names:
            activity_type = registry.get(name)
            wcc += activity_type.cost + registry.compensation_cost(name)
            if activity_type.point_of_no_return:
                break
            if cost_based and wcc >= threshold:
                break
            prefix.append(name)
        return prefix

    def _probe(self, process: Process, names) -> dict[str, bool]:
        """Comp-Rule verdicts for ``names``, fanned out per shard group.

        Worker dispatch engages only when the probe genuinely spans
        several large shard groups; otherwise the coordinator probes
        inline.  Either way the verdicts are identical — the probes are
        read-only and the coordinator holds still while waiting.
        """
        if self._fanout_threshold is None or self._executor.workers <= 1:
            return self.protocol.probe_c_grants(process, names)
        registry = self.protocol.registry
        groups: dict[str, list[str]] = {}
        for name in names:
            subsystem = registry.get(name).subsystem
            bucket = groups.setdefault(subsystem, [])
            if name not in bucket:
                bucket.append(name)
        shards = self.protocol.table.shards
        if len(groups) > 1 and all(
            (shard := shards.get(subsystem)) is not None
            and shard.lock_count >= self._fanout_threshold
            for subsystem in groups
        ):
            jobs = [
                (
                    self._assignment.get(subsystem, 0),
                    lambda batch=tuple(group): (
                        self.protocol.probe_c_grants(process, batch)
                    ),
                )
                for subsystem, group in groups.items()
            ]
            verdicts: dict[str, bool] = {}
            for result in self._executor.map_groups(jobs):
                verdicts.update(result)
            return verdicts
        return self.protocol.probe_c_grants(process, names)

    # ------------------------------------------------------------------
    # worker-aware observability & audits
    # ------------------------------------------------------------------
    def _worker_for_type(self, type_name: str) -> int | None:
        worker = self.protocol.table.worker_of(type_name)
        return 0 if worker is None else worker

    def _run_audit(self, shards: tuple[str, ...] | None) -> None:
        if shards is not None and len(shards) == 1:
            worker = self._assignment.get(shards[0])
            if worker is not None and self._executor.workers > 1:
                self._executor.run_on(
                    worker, lambda: self.protocol.audit(shards=shards)
                )
                return
        super()._run_audit(shards)
