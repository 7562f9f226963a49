module Flight = Poc_obs.Flight

type t = {
  disk : Disk.t;
  bb_path : string;
  bb_ring : Flight.t;
  mutable bytes : int;  (* on-disk size as of the last flush *)
}

let ring t = t.bb_ring

let file_bytes t = t.bytes

(* The compaction budget: a flush that would take the file past it
   rewrites the ring's image instead of appending. *)
let rewrite_bytes = 262144

let rewrite t =
  let img = Flight.image t.bb_ring in
  Disk.write_file_atomic t.disk t.bb_path img;
  t.bytes <- String.length img

let file_in store = Filename.concat store "FLIGHT"

(* A box whose file is [ring]'s image, written atomically. *)
let fresh ~disk path ring =
  let t = { disk; bb_path = path; bb_ring = ring; bytes = 0 } in
  rewrite t;
  t

let create ?capacity ?(disk = Disk.real ()) path =
  fresh ~disk path (Flight.create ?capacity ())

let append t bytes =
  let log = Log.reopen t.disk t.bb_path ~at:t.bytes ~truncate:false in
  Fun.protect
    ~finally:(fun () -> Log.close log)
    (fun () -> Log.append log bytes);
  t.bytes <- Log.size log

let flush t =
  match Flight.drain t.bb_ring with
  | `Empty -> ()
  | `Wrapped -> rewrite t
  | `Append bytes ->
    if t.bytes + String.length bytes > rewrite_bytes then rewrite t
    else append t bytes

let close t = flush t

let mark_resume t =
  Flight.emit t.bb_ring ~epoch:(-1) ~phase:""
    (Flight.Event
       {
         name = "resume";
         detail = Printf.sprintf "records=%d" (Flight.stored t.bb_ring);
       });
  flush t

let is_resume (r : Flight.record) =
  match r.Flight.kind with
  | Flight.Event { name = "resume"; _ } -> true
  | _ -> false

(* The file already holds the reopened ring's frames: cut it to its
   valid prefix, as [scrub] would, and append from there.  Only an
   image stamped with another capacity is rewritten. *)
let reopen ?capacity ?(disk = Disk.real ()) path =
  match Disk.read_file disk path with
  | exception Sys_error _ -> fresh ~disk path (Flight.create ?capacity ())
  | data -> (
    match Flight.reopen ?capacity data with
    | Ok (ring, `Append_at keep) ->
      if keep < String.length data then Disk.truncate_file disk path keep;
      { disk; bb_path = path; bb_ring = ring; bytes = keep }
    | Ok (ring, `Rewrite) -> fresh ~disk path ring
    | Error _ -> fresh ~disk path (Flight.create ?capacity ()))

let load ?disk path =
  let disk = match disk with Some d -> d | None -> Disk.real () in
  match Disk.read_file disk path with
  | exception Sys_error e -> Error e
  | data -> Flight.decode_image data

type scrub_result = {
  fb_bytes_kept : int;
  fb_bytes_dropped : int;
  fb_records : int;
}

let scrub ?disk path =
  let disk = match disk with Some d -> d | None -> Disk.real () in
  match Disk.read_file disk path with
  | exception Sys_error e -> Error e
  | data -> (
    let keep = Flight.valid_prefix data in
    if keep = 0 then Error (path ^ ": not a flight image")
    else begin
      let dropped = String.length data - keep in
      if dropped > 0 then Disk.truncate_file disk path keep;
      match Flight.decode_image (String.sub data 0 keep) with
      | Error e -> Error e (* unreachable: the prefix decoded above *)
      | Ok img ->
        Ok
          {
            fb_bytes_kept = keep;
            fb_bytes_dropped = dropped;
            fb_records = img.Flight.img_frames;
          }
    end)
