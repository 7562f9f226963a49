(* Experiment harness: regenerates every quantitative artifact of the
   paper (Figure 2 plus the Section 4 analytical results, E1-E8 in
   DESIGN.md) and runs Bechamel micro-benchmarks of the kernels.

     dune exec bench/main.exe                 # all experiments, quick scale
     dune exec bench/main.exe -- e1 e3        # a subset
     dune exec bench/main.exe -- --paper e1   # full Figure 2 scale (slow)
     dune exec bench/main.exe -- --seed 7 all *)

let experiments =
  [
    ("e1", "Figure 2: PoB margins under constraints #1-#3", E1_figure2.run);
    ("e2", "link-withholding (collusion)", E2_collusion.run);
    ("e3", "social welfare NN vs UR", E3_welfare.run);
    ("e4", "double marginalization p*(t)", E4_doublemarg.run);
    ("e5", "Nash-bargained fee vs churn", E5_bargain.run);
    ("e6", "incumbent advantage", E6_incumbent.run);
    ("e7", "renegotiation equilibrium", E7_equilibrium.run);
    ("e8", "settlement & budget balance", E8_settlement.run);
    ("e9", "ablations: payment rule, ranking, routing", E9_ablation.run);
    ("e10", "federated POCs (extension)", E10_federation.run);
    ("e11", "availability under failures (extension)", E11_availability.run);
    ("e12", "multicast & CDN services (extension)", E12_services.run);
    ("e13", "retail pricing & last-mile congestion (extension)", E13_retail.run);
    ("e14", "incremental POC deployment (extension)", E14_transition.run);
    ("e15", "chaos: faults & graceful degradation (extension)", E15_chaos.run);
    ("e19", "continent-scale feasibility: cache + repair (extension)",
      E19_scale.run);
    ("micro", "Bechamel kernel micro-benchmarks", Micro.run);
  ]

let run_selected ~scale ~seed names =
  let wanted =
    match names with
    | [] | [ "all" ] -> List.map (fun (n, _, _) -> n) experiments
    | _ :: _ -> names
  in
  let unknown =
    List.filter
      (fun n -> not (List.exists (fun (n', _, _) -> n' = n) experiments))
      wanted
  in
  match unknown with
  | _ :: _ ->
    Printf.eprintf "unknown experiment(s): %s\navailable: %s\n"
      (String.concat ", " unknown)
      (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
    exit 2
  | [] ->
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (name, _, run) ->
        if List.mem name wanted then run ~scale ~seed)
      experiments;
    Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)

open Cmdliner

let scale_arg =
  let doc = "Run at the paper's full Figure 2 scale (slow: tens of minutes)." in
  Arg.(value & flag & info [ "paper" ] ~doc)

let seed_arg =
  let doc = "Master PRNG seed for the generated instances." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc ~docv:"SEED")

let names_arg =
  let doc =
    "Experiments to run (e1-e8, micro, or 'all'); default runs everything."
  in
  Arg.(value & pos_all string [] & info [] ~doc ~docv:"EXPERIMENT")

let cmd =
  let doc = "Regenerate the paper's tables and figures" in
  let term =
    Term.(
      const (fun paper seed names ->
          let scale = if paper then Common.Paper else Common.Quick in
          run_selected ~scale ~seed names)
      $ scale_arg $ seed_arg $ names_arg)
  in
  Cmd.v (Cmd.info "poc-bench" ~doc) term

let () = exit (Cmd.eval cmd)
