let () = Alcotest.run "routeflow-autoconf" [
      ("sim", Test_sim.suite);
      ("packet", Test_packet.suite);
      ("openflow", Test_openflow.suite);
      ("net", Test_net.suite);
      ("controller", Test_controller.suite);
      ("flowvisor", Test_flowvisor.suite);
      ("routing", Test_routing.suite);
      ("ospf", Test_ospf.suite);
      ("rip", Test_rip.suite);
      ("routeflow", Test_routeflow.suite);
      ("rpc", Test_rpc.suite);
      ("cluster", Test_cluster.suite);
      ("core", Test_core.suite);
      ("integration", Test_integration.suite);
      ("props", Test_props.suite);
      ("faults", Test_faults.suite);
      ("obs", Test_obs.suite);
      ("traffic", Test_traffic.suite);
      ("analysis", Test_analysis.suite);
      ("profiler", Test_profiler.suite);
      ("shard", Test_shard.suite);
      ("auditor", Test_auditor.suite);
      ("route-track", Test_route_track.suite);
      ("registry", Test_registry.suite);
    ]
