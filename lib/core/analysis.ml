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

let rule ?(unit_ = "s") ?(direction = Slo.At_most) name what source ~warn ~fail
    =
  {
    Slo.r_name = name;
    r_what = what;
    r_source = source;
    r_direction = direction;
    r_warn = warn;
    r_fail = fail;
    r_unit = unit_;
  }

let completeness prefix =
  rule ~unit_:"records"
    (prefix ^ ".dropped_records")
    "forwarding classes the auditor could not probe" Slo.Dropped_records
    ~warn:0. ~fail:0.

let e1b_rules =
  [
    rule "e1b.configure_max_s" "slowest switch end-to-end configure time"
      (Slo.Span_max_duration_s "sw.configure") ~warn:17. ~fail:25.;
    rule "e1b.convergence_tail_s"
      "routing tail between all-green and full RIB coverage"
      (Slo.Span_max_duration_s "phase.convergence") ~warn:3. ~fail:10.;
    rule "e1b.end_to_end_s" "time to full routing convergence"
      (Slo.Meta_s "converged_s") ~warn:20. ~fail:30.;
    rule "e1b.rpc_p99_s" "p99 of per-switch RPC config delivery"
      (Slo.Span_quantile_s ("phase.rpc", 0.99))
      ~warn:0.1 ~fail:1.;
    completeness "e1b";
  ]

let e3_rules =
  [
    rule "e3.recovery_delay_s"
      "routes settled after the link cut (reconverged - cut)"
      (Slo.Meta_diff_s ("reconverged_s", "last_fault_s"))
      ~warn:10. ~fail:30.;
    rule ~unit_:"ratio" "e3.window_loss_ratio"
      "datagrams lost in the 30 s post-cut window"
      (Slo.Meta_ratio ("window_lost", "window_sent"))
      ~warn:0.2 ~fail:0.5;
    rule "e3.converged_s" "initial convergence before the fault"
      (Slo.Meta_s "converged_s") ~warn:30. ~fail:60.;
    completeness "e3";
  ]

let e4_rules =
  [
    rule ~unit_:"msgs" "e4.rpc_undelivered"
      "config events lost across the crash (0 under reconciliation)"
      (Slo.Meta_s "rpc_undelivered") ~warn:0. ~fail:0.;
    rule "e4.recovery_delay_s"
      "routes settled after controller recovery"
      (Slo.Meta_diff_s ("reconverged_s", "recover_at_s"))
      ~warn:15. ~fail:40.;
    (* Denominator is ALL telemetry events: a sparse window that is
       nothing but deadness signals would otherwise saturate the
       burn at its 1/(1-objective) ceiling. *)
    rule ~unit_:"x" "e4.rpc_deadness_burn"
      "sliding-window budget burn of peer-dead signals (99% objective)"
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
    rule "e6.disruption_s"
      "traffic-weighted disruption under automatic response"
      (Slo.Meta_s "disruption_s") ~warn:2. ~fail:10.;
    rule ~direction:Slo.At_least ~unit_:"ratio" "e6.delivery_ratio"
      "datagrams delivered / offered over the whole run"
      (Slo.Meta_ratio ("delivered", "offered"))
      ~warn:0.97 ~fail:0.90;
    rule "e6.disruption_union_s"
      "wall-clock union of per-flow disruption spans"
      (Slo.Span_union_duration_s "traffic.disruption") ~warn:8. ~fail:30.;
    completeness "e6";
  ]

let e9_rules =
  [
    rule "e9.failover_s"
      "leaderless interval from leader crash to re-election"
      (Slo.Meta_s "failover_s") ~warn:5. ~fail:15.;
    rule "e9.disruption_s"
      "traffic-weighted disruption across crash + cut (replicated)"
      (Slo.Meta_s "disruption_s") ~warn:5. ~fail:20.;
    rule ~direction:Slo.At_least ~unit_:"ratio" "e9.delivery_ratio"
      "datagrams delivered / offered over the whole run"
      (Slo.Meta_ratio ("delivered", "offered"))
      ~warn:0.97 ~fail:0.90;
    rule ~unit_:"elections" "e9.elections"
      "leader elections over the run (bootstrap + one failover)"
      (Slo.Meta_s "elections") ~warn:2. ~fail:4.;
    rule "e9.failover_union_s"
      "wall-clock union of cluster failover spans"
      (Slo.Span_union_duration_s "cluster.failover") ~warn:5. ~fail:15.;
    completeness "e9";
  ]

let e10_rules =
  [
    rule ~direction:Slo.At_least ~unit_:"pct" "e10.attributed_pct"
      "share of executed events attributed to a tagged entity"
      (Slo.Meta_s "profile_attributed_pct") ~warn:90. ~fail:75.;
    completeness "e10";
  ]

let e12_rules =
  [
    rule ~unit_:"windows" "e12.steady_windows"
      "violation windows inside the steady (post-convergence, \
       pre-fault) interval"
      (Slo.Meta_s "steady_windows") ~warn:0. ~fail:0.;
    rule "e12.fault_union_s"
      "union of violation windows after the fault (automatic E9 run)"
      (Slo.Meta_s "fault_union_s") ~warn:10. ~fail:40.;
    rule ~unit_:"windows" "e12.open_at_horizon"
      "violation windows still open at the horizon"
      (Slo.Meta_s "open_at_horizon") ~warn:0. ~fail:0.;
    rule "e12.violation_union_s"
      "union of every audit.violation span over the whole run"
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
    (Critical_path.find_longest ~name:"sw.configure" (forest dump))

let scorecard ppf results = Slo.pp_scorecard ppf results
