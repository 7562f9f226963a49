module Metrics = Poc_obs.Metrics

let m_hits =
  Metrics.counter ~help:"Shared feasibility/cost cache hits"
    Metrics.default "poc_feascache_hits_total"

let m_misses =
  Metrics.counter ~help:"Shared feasibility/cost cache misses"
    Metrics.default "poc_feascache_misses_total"

type shard = {
  feas : (string, bool) Hashtbl.t;
  cost : (string, float) Hashtbl.t;
}

type t = {
  on : bool; (* the switch as it stood at [create] *)
  merged : shard; (* written only by [join]; read-only between joins *)
  mu : Mutex.t; (* guards [shards] registration and [join] *)
  shards : (int, shard) Hashtbl.t; (* domain id -> private shard *)
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let enabled_flag = Atomic.make true

let enabled () = Atomic.get enabled_flag

let set_enabled v = Atomic.set enabled_flag v

let mk_shard () = { feas = Hashtbl.create 512; cost = Hashtbl.create 64 }

let create ~digest:_ =
  {
    on = enabled ();
    merged = mk_shard ();
    mu = Mutex.create ();
    shards = Hashtbl.create 8;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

(* The lock is held only for the shard lookup/registration — never
   while probing or writing entries, which touch purely domain-private
   state (plus lock-free reads of the quiescent merged table). *)
let my_shard t =
  let did = (Domain.self () :> int) in
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.shards did with
      | Some s -> s
      | None ->
        let s = mk_shard () in
        Hashtbl.add t.shards did s;
        s)

let count_result t = function
  | Some _ as r ->
    Atomic.incr t.hits;
    Metrics.Counter.inc m_hits;
    r
  | None ->
    Atomic.incr t.misses;
    Metrics.Counter.inc m_misses;
    None

(* A cache created with the switch off keeps nothing and counts
   nothing, so every probe falls through to a fresh evaluation. *)
let find table t key =
  if not t.on then None
  else
    count_result t
      (match Hashtbl.find_opt (table t.merged) key with
      | Some _ as r -> r
      | None -> Hashtbl.find_opt (table (my_shard t)) key)

let add table t key v =
  if t.on then Hashtbl.replace (table (my_shard t)) key v

let find_feas t key = find (fun s -> s.feas) t key

let add_feas t key v = add (fun s -> s.feas) t key v

let find_cost t key = find (fun s -> s.cost) t key

let add_cost t key v = add (fun s -> s.cost) t key v

let join t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.iter
        (fun _ s ->
          Hashtbl.iter (fun k v -> Hashtbl.replace t.merged.feas k v) s.feas;
          Hashtbl.iter (fun k v -> Hashtbl.replace t.merged.cost k v) s.cost;
          Hashtbl.reset s.feas;
          Hashtbl.reset s.cost)
        t.shards)

let stats t = (Atomic.get t.hits, Atomic.get t.misses)
