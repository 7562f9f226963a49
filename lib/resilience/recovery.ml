type t = {
  cap : int;
  delays : float array;
  mutable failures : int;
  mutable specs : Fault.spec list;
}

let create ~cap ~delays specs =
  { cap; delays = Array.of_list delays; failures = 0; specs }

let specs t = t.specs
let failures t = t.failures

let consume t ~epoch ~phase =
  let fired, rest = List.partition (Fault.spec_fired ~epoch ~phase) t.specs in
  t.specs <- rest;
  fired

type verdict = Retry of float | Quarantine

let fail t =
  t.failures <- t.failures + 1;
  let n = Array.length t.delays in
  if t.failures > t.cap then Quarantine
  else if n = 0 then Retry 0.0
  else Retry t.delays.(min (t.failures - 1) (n - 1))

let scrub store =
  match Journal.scrub ~disk:(Disk.real ()) store with
  | Ok report -> Some report
  | Error _ | (exception Sys_error _) -> None
