(* rfauto — command-line front end for the reproduction experiments.
   Every experiment subcommand, and `fingerprint`, comes from
   Rf_core.Registry; inspect, trace and run are hand-written tools. *)

open Cmdliner

(* --- inspect ---------------------------------------------------------- *)

let inspect_cmd =
  let n_arg = Arg.(value & opt int 4 & info [ "switches" ] ~doc:"Ring size.") in
  let dpid_arg =
    Arg.(value & opt int 1 & info [ "dpid" ] ~doc:"Switch whose VM to inspect.")
  in
  let run n dpid =
    let topo = Rf_net.Topo_gen.ring n in
    let options =
      {
        Rf_core.Scenario.default_options with
        rf_params =
          {
            Rf_core.Scenario.default_options.Rf_core.Scenario.rf_params with
            Rf_routeflow.Rf_system.vm_boot_time = Rf_sim.Vtime.span_s 2.0;
          };
      }
    in
    let s = Rf_core.Scenario.build ~options topo in
    Rf_core.Scenario.run_for s (Rf_sim.Vtime.span_s ((2.0 *. float_of_int n) +. 30.));
    let d = Int64.of_int dpid in
    match Rf_routeflow.Rf_system.vm (Rf_core.Scenario.rf_system s) d with
    | None -> Format.printf "switch %Ld has no VM@." d
    | Some vm ->
        Format.printf "=== %s: show ip route ===@.%s@." (Rf_routeflow.Vm.hostname vm)
          (Rf_routing.Show.ip_route (Rf_routeflow.Vm.rib vm));
        (match Rf_routeflow.Vm.ospfd vm with
        | Some daemon ->
            Format.printf "=== show ip ospf neighbor ===@.%s@."
              (Rf_routing.Show.ip_ospf_neighbor daemon);
            Format.printf "=== show ip ospf database ===@.%s@."
              (Rf_routing.Show.ip_ospf_database daemon)
        | None -> ());
        (match Rf_routeflow.Vm.ripd vm with
        | Some daemon ->
            Format.printf "=== show ip rip ===@.%s@." (Rf_routing.Show.ip_rip daemon)
        | None -> ());
        (match Rf_routeflow.Vm.config_file vm "zebra.conf" with
        | Some text -> Format.printf "=== zebra.conf ===@.%s@." text
        | None -> ());
        let dp = Rf_net.Network.datapath (Rf_core.Scenario.network s) d in
        Format.printf "=== physical flow table (%d entries) ===@."
          (Rf_net.Flow_table.size (Rf_net.Datapath.flow_table dp));
        List.iter
          (fun (e : Rf_net.Flow_table.entry) ->
            Format.printf "  prio=%d %a -> %s@." e.Rf_net.Flow_table.e_priority
              Rf_openflow.Of_match.pp e.Rf_net.Flow_table.e_match
              (String.concat ", "
                 (List.map
                    (Format.asprintf "%a" Rf_openflow.Of_action.pp)
                    e.Rf_net.Flow_table.e_actions)))
          (Rf_net.Flow_table.entries (Rf_net.Datapath.flow_table dp))
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Run a ring scenario, then dump one VM's vtysh state and its switch's flow table")
    Term.(const (fun n dpid -> run n dpid; 0) $ n_arg $ dpid_arg)

(* --- trace ------------------------------------------------------------- *)

let trace_cmd =
  let n_arg = Arg.(value & opt int 4 & info [ "switches" ] ~doc:"Ring size.") in
  let run n =
    let topo = Rf_net.Topo_gen.ring n in
    let s = Rf_core.Scenario.build topo in
    Rf_core.Scenario.run_for s (Rf_sim.Vtime.span_s ((8.0 *. float_of_int n) +. 60.));
    let timeline = Rf_core.Timeline.of_scenario s in
    print_string (Rf_core.Timeline.render timeline);
    let sum = Rf_core.Timeline.summarize timeline in
    Format.printf
      "@.%d switches detected, %d links detected, %d VMs ready, %d configured@."
      sum.Rf_core.Timeline.switches_detected sum.Rf_core.Timeline.links_detected
      sum.Rf_core.Timeline.vms_ready sum.Rf_core.Timeline.vms_configured;
    (match sum.Rf_core.Timeline.last_vm_ready_s with
    | Some t -> Format.printf "last VM ready at %.1f s@." t
    | None -> ())
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print the configuration event timeline of a ring run")
    Term.(const (fun n -> run n; 0) $ n_arg)

(* --- run: user topology file ------------------------------------------- *)

let run_cmd =
  let topo_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "topo" ] ~docv:"FILE"
          ~doc:"Topology file (switch/link/host lines; see Topo_file).")
  in
  let horizon_arg2 =
    Arg.(value & opt float 0.0 & info [ "horizon" ] ~doc:"Sim seconds (0 = auto).")
  in
  let run topo_path horizon vm_boot_s =
    match Rf_net.Topo_file.load topo_path with
    | Error e ->
        Format.eprintf "%s@." e;
        exit 1
    | Ok topo ->
        let options =
          {
            Rf_core.Scenario.default_options with
            rf_params =
              {
                Rf_core.Scenario.default_options.Rf_core.Scenario.rf_params with
                Rf_routeflow.Rf_system.vm_boot_time = Rf_sim.Vtime.span_s vm_boot_s;
              };
          }
        in
        let s = Rf_core.Scenario.build ~options topo in
        let horizon =
          if horizon > 0. then horizon
          else
            (vm_boot_s *. float_of_int (Rf_net.Topology.switch_count topo)) +. 120.
        in
        Rf_core.Scenario.run_for s (Rf_sim.Vtime.span_s horizon);
        print_string (Rf_core.Timeline.render (Rf_core.Timeline.of_scenario s));
        Format.printf "@.%s@." (Rf_core.Gui.render (Rf_core.Scenario.gui s));
        (match Rf_core.Scenario.all_configured_at s with
        | Some t ->
            Format.printf "all switches configured at %.1f s@." (Rf_sim.Vtime.to_s t)
        | None -> Format.printf "configuration incomplete within the horizon@.");
        match Rf_core.Scenario.routing_converged_at s with
        | Some t -> Format.printf "routing converged at %.1f s@." (Rf_sim.Vtime.to_s t)
        | None -> Format.printf "routing not converged within the horizon@."
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Autoconfigure a user-supplied topology file and report the timeline")
    Term.(
      const (fun topo horizon boot -> run topo horizon boot; 0)
      $ topo_arg $ horizon_arg2 $ Rf_core.Registry.boot_arg)

let main =
  Cmd.group
    (Cmd.info "rfauto" ~version:"1.0.0"
       ~doc:
         "Automatic configuration of routing control platforms in OpenFlow \
          networks — reproduction experiments")
    (List.map Rf_core.Registry.cmd Rf_core.Registry.all
    @ [ Rf_core.Registry.fingerprint_cmd; inspect_cmd; trace_cmd; run_cmd ])

let () = exit (Cmd.eval' main)
