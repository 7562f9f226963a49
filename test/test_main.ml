let () =
  Alcotest.run "poc"
    [
      ("util", Test_util.suite);
      ("graph", Test_graph.suite);
      ("topology", Test_topology.suite);
      ("traffic", Test_traffic.suite);
      ("mcf", Test_mcf.suite);
      ("auction", Test_auction.suite);
      ("econ", Test_econ.suite);
      ("baseline", Test_baseline.suite);
      ("core", Test_core.suite);
      ("sim", Test_sim.suite);
      ("market", Test_market.suite);
      ("federation", Test_federation.suite);
      ("resilience", Test_resilience.suite);
      ("fleet", Test_fleet.suite);
      ("daemon", Test_daemon.suite);
      ("registry", Test_registry.suite);
      ("obs", Test_obs.suite);
      ("formats", Test_formats.suite);
    ]
