(* Trace analytics over the experiments: the standard SLO rule set of
   each experiment, plus the critical paths, flamegraph forests and
   baseline indicators derived from a telemetry dump. Thresholds are
   calibrated to the seed-42 defaults — warn sits above the observed
   value with headroom for legitimate drift, fail marks a broken run. *)

module Ingest = Rf_obs.Ingest
module Slo = Rf_obs.Slo
module Critical_path = Rf_obs.Critical_path
module Flamegraph = Rf_obs.Flamegraph
module Baseline = Rf_obs.Baseline
module Phase = Rf_obs.Phase

let rule ?(unit_ = "s") ?(direction = Slo.At_most) name source ~warn ~fail =
  {
    Slo.r_name = name;
    r_source = source;
    r_direction = direction;
    r_warn = warn;
    r_fail = fail;
    r_unit = unit_;
  }

(* Forwarding classes the auditor could not probe. *)
let completeness prefix =
  rule ~unit_:"records"
    (prefix ^ ".dropped_records")
    Slo.Dropped_records ~warn:0. ~fail:0.

let e1b_rules =
  [
    (* Slowest switch end-to-end configure time. *)
    rule "e1b.configure_max_s"
      (Slo.Span_max_duration_s (Phase.name Configure))
      ~warn:17. ~fail:25.;
    (* Routing tail between all-green and full RIB coverage. *)
    rule "e1b.convergence_tail_s"
      (Slo.Span_max_duration_s "phase.convergence") ~warn:3. ~fail:10.;
    (* Time to full routing convergence. *)
    rule "e1b.end_to_end_s" (Slo.Meta_s "converged_s") ~warn:20. ~fail:30.;
    (* p99 of per-switch RPC config delivery. *)
    rule "e1b.rpc_p99_s"
      (Slo.Span_quantile_s (Phase.name Rpc, 0.99))
      ~warn:0.1 ~fail:1.;
    completeness "e1b";
  ]

let e3_rules =
  [
    (* Routes settled after the link cut (reconverged - cut). *)
    rule "e3.recovery_delay_s"
      (Slo.Meta_diff_s ("reconverged_s", "last_fault_s"))
      ~warn:10. ~fail:30.;
    (* Datagrams lost in the 30 s post-cut window. *)
    rule ~unit_:"ratio" "e3.window_loss_ratio"
      (Slo.Meta_ratio ("window_lost", "window_sent"))
      ~warn:0.2 ~fail:0.5;
    (* Initial convergence before the fault. *)
    rule "e3.converged_s" (Slo.Meta_s "converged_s") ~warn:30. ~fail:60.;
    completeness "e3";
  ]

let e4_rules =
  [
    (* Config events lost across the crash (0 under reconciliation). *)
    rule ~unit_:"msgs" "e4.rpc_undelivered"
      (Slo.Meta_s "rpc_undelivered") ~warn:0. ~fail:0.;
    (* Routes settled after controller recovery. *)
    rule "e4.recovery_delay_s"
      (Slo.Meta_diff_s ("reconverged_s", "recover_at_s"))
      ~warn:15. ~fail:40.;
    (* Sliding-window budget burn of peer-dead signals (99% objective).
       Denominator is ALL telemetry events: a sparse window that is
       nothing but deadness signals would otherwise saturate the
       burn at its 1/(1-objective) ceiling. *)
    rule ~unit_:"x" "e4.rpc_deadness_burn"
      (Slo.Burn_rate
         {
           errors =
             {
               Slo.m_component = Some "rpc-client";
               m_kind = Some "peer-dead";
             };
           total = { Slo.m_component = None; m_kind = None };
           objective = 0.99;
           window_us = 10_000_000;
         })
      ~warn:60. ~fail:90.;
    completeness "e4";
  ]

let e6_rules =
  [
    (* Traffic-weighted disruption under automatic response. *)
    rule "e6.disruption_s" (Slo.Meta_s "disruption_s") ~warn:2. ~fail:10.;
    (* Datagrams delivered / offered over the whole run. *)
    rule ~direction:Slo.At_least ~unit_:"ratio" "e6.delivery_ratio"
      (Slo.Meta_ratio ("delivered", "offered"))
      ~warn:0.97 ~fail:0.90;
    (* Wall-clock union of per-flow disruption spans. *)
    rule "e6.disruption_union_s"
      (Slo.Span_union_duration_s "traffic.disruption") ~warn:8. ~fail:30.;
    completeness "e6";
  ]

let e9_rules =
  [
    (* Leaderless interval from leader crash to re-election. *)
    rule "e9.failover_s" (Slo.Meta_s "failover_s") ~warn:5. ~fail:15.;
    (* Traffic-weighted disruption across crash + cut (replicated). *)
    rule "e9.disruption_s" (Slo.Meta_s "disruption_s") ~warn:5. ~fail:20.;
    (* Datagrams delivered / offered over the whole run. *)
    rule ~direction:Slo.At_least ~unit_:"ratio" "e9.delivery_ratio"
      (Slo.Meta_ratio ("delivered", "offered"))
      ~warn:0.97 ~fail:0.90;
    (* Leader elections over the run (bootstrap + one failover). *)
    rule ~unit_:"elections" "e9.elections"
      (Slo.Meta_s "elections") ~warn:2. ~fail:4.;
    (* Wall-clock union of cluster failover spans. *)
    rule "e9.failover_union_s"
      (Slo.Span_union_duration_s "cluster.failover") ~warn:5. ~fail:15.;
    completeness "e9";
  ]

let e10_rules =
  [
    (* Share of executed events attributed to a tagged entity. *)
    rule ~direction:Slo.At_least ~unit_:"pct" "e10.attributed_pct"
      (Slo.Meta_s "profile_attributed_pct") ~warn:90. ~fail:75.;
    completeness "e10";
  ]

let e12_rules =
  [
    (* Violation windows inside the steady (post-convergence, pre-fault)
       interval. *)
    rule ~unit_:"windows" "e12.steady_windows"
      (Slo.Meta_s "steady_windows") ~warn:0. ~fail:0.;
    (* Union of violation windows after the fault (automatic E9 run). *)
    rule "e12.fault_union_s" (Slo.Meta_s "fault_union_s") ~warn:10. ~fail:40.;
    (* Violation windows still open at the horizon. *)
    rule ~unit_:"windows" "e12.open_at_horizon"
      (Slo.Meta_s "open_at_horizon") ~warn:0. ~fail:0.;
    (* Union of every audit.violation span over the whole run. *)
    rule "e12.violation_union_s"
      (Slo.Span_union_duration_s "audit.violation") ~warn:40. ~fail:90.;
    completeness "e12";
  ]

(* Baseline indicators are the SLO measurements themselves: the rule's
   direction gives the bad direction, its unit the display unit. Rules
   without a value contribute nothing (their Fail verdict already
   reports the problem). *)
let indicators_of_results results =
  List.filter_map
    (fun (r : Slo.result) ->
      match r.res_value with
      | None -> None
      | Some v ->
          Some
            {
              Baseline.i_name = r.res_rule.r_name;
              i_value = v;
              i_unit = r.res_rule.r_unit;
              i_lower_is_better = r.res_rule.r_direction = Slo.At_most;
            })
    results

let baseline_run ~label results =
  { Baseline.run_label = label; indicators = indicators_of_results results }

(* The span forest of a dump, and the critical path of the longest
   configure chain — the headline "where did the time go" answer. *)
let forest (dump : Ingest.dump) = Critical_path.forest dump.spans

let configure_path dump =
  Option.map Critical_path.critical_path
    (Critical_path.find_longest ~name:(Phase.name Configure) (forest dump))

let scorecard ppf results = Slo.pp_scorecard ppf results
