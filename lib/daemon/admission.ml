type 'a entry = { seq : int; apply_epoch : int; priority : int; payload : 'a }

type 'a decision =
  | Admitted of { shed : 'a entry option }
  | Rejected of { retry_after : float }
  | Duplicate

type 'a t = {
  hw : int;
  mutable queue : 'a entry list;  (* ascending seq *)
  mutable last_seq : int;
  mutable streak : int;  (* consecutive rejections *)
}

let create ?(high_water = 64) () =
  if high_water < 1 then invalid_arg "Admission: high_water must be >= 1";
  { hw = high_water; queue = []; last_seq = 0; streak = 0 }

let high_water t = t.hw
let depth t = List.length t.queue
let last_seq t = t.last_seq
let set_last_seq t seq = t.last_seq <- max t.last_seq seq

let insert t e =
  (* Seqs are admitted in increasing order, so appending keeps the
     queue sorted; [force] may interleave a resume backlog, hence the
     general insertion. *)
  let rec go = function
    | [] -> [ e ]
    | x :: rest when x.seq < e.seq -> x :: go rest
    | rest -> e :: rest
  in
  t.queue <- go t.queue

let force t e =
  set_last_seq t e.seq;
  insert t e

let drop t ~seq = t.queue <- List.filter (fun e -> e.seq <> seq) t.queue

(* Strictly lowest priority, oldest among ties.  The queue is in seq
   order, so the first minimal-priority entry is the oldest. *)
let victim t =
  match t.queue with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun best e -> if e.priority < best.priority then e else best)
         first rest)

let offer t e =
  if e.seq <= t.last_seq then Duplicate
  else if List.length t.queue < t.hw then begin
    t.last_seq <- e.seq;
    t.streak <- 0;
    insert t e;
    Admitted { shed = None }
  end
  else
    match victim t with
    | Some v when v.priority < e.priority ->
      t.last_seq <- e.seq;
      t.streak <- 0;
      drop t ~seq:v.seq;
      insert t e;
      Admitted { shed = Some v }
    | Some _ | None ->
      t.streak <- t.streak + 1;
      let backoff = 0.05 *. (2.0 ** float_of_int (min 30 (t.streak - 1))) in
      Rejected { retry_after = Float.min 1.0 backoff }

let drain t ~epoch =
  let ready, rest =
    List.partition (fun e -> e.apply_epoch <= epoch) t.queue
  in
  t.queue <- rest;
  ready
