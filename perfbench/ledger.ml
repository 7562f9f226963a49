(* The repository benchmark.

     ledger.exe --workload fig2|scale|serve [--seed N] [--seconds S] [--trace 0|1]

   Runs one workload for about S seconds and prints its figures, one per
   line with unit and sample count, then one JSON result line: the
   end-to-end metrics when untraced, the per-layer ledger when traced.
   Exits 1 when any output check failed.  See perfbench/NOTES.md. *)

let usage =
  "ledger.exe --workload fig2|scale|serve [--seed N] [--seconds S] [--trace 0|1]"

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " fig2, scale or serve");
      ("--seed", Arg.Set_int seed, " workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, " measured time (default 10)");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if (!trace <> 0 && !trace <> 1) || not (List.mem !workload [ "fig2"; "scale"; "serve" ])
  then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  (* Scratch space inside the working directory, removed on exit. *)
  let out = ".perfbench" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let workdir = Filename.concat out (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  Sys.mkdir workdir 0o755;
  let result =
    Fun.protect
      ~finally:(fun () -> Harness.rm_rf workdir)
      (fun () ->
        match !workload with
        | "fig2" -> Fig2.run ~seed ~seconds ~trace
        | "scale" -> Scale.run ~seed ~seconds ~trace
        | _ -> Serve.run ~seed ~seconds ~trace ~workdir)
  in
  if List.map (fun (x : Harness.metric) -> (x.Harness.name, x.Harness.unit_)) result.Harness.e2e
     <> Layers.end_to_end
  then invalid_arg "perfbench: end-to-end metrics out of shape";
  if trace then
    Harness.Spans.write
      (Filename.concat out (Printf.sprintf "%s-seed%d.trace.json" !workload seed));
  Harness.emit ~trace result;
  exit (if result.Harness.checks.Harness.failed = 0 then 0 else 1)
