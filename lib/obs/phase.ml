let run ~flight ~epoch hist name body =
  (match flight with
  | None -> ()
  | Some (ring, flush) ->
    Flight.emit ring ~epoch ~phase:name (Flight.Span_open { name });
    flush ());
  let sp = Trace.span name in
  let t0 = Clock.now_us () in
  let v =
    match body sp with
    | v -> v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Trace.finish sp;
      Printexc.raise_with_backtrace e bt
  in
  Metrics.Histogram.observe hist ((Clock.now_us () -. t0) *. 1e-6);
  Trace.finish sp;
  (match flight with
  | None -> ()
  | Some (ring, _) ->
    Flight.emit ring ~epoch ~phase:name
      (Flight.Span_close { name; dur_us = Clock.now_us () -. t0 }));
  v
