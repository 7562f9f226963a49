module Flight = Poc_obs.Flight

type t = {
  disk : Disk.t;
  bb_path : string;
  bb_ring : Flight.t;
  rewrite_bytes : int;
  mutable bytes : int;  (* on-disk size as of the last flush *)
}

let ring t = t.bb_ring

let path t = t.bb_path

let file_bytes t = t.bytes

let rewrite t =
  let img = Flight.image t.bb_ring in
  Disk.write_file_atomic t.disk t.bb_path img;
  t.bytes <- String.length img

let create ?capacity ?(rewrite_bytes = 262144) ?disk path =
  if rewrite_bytes < 1 then
    invalid_arg "Black_box.create: rewrite_bytes must be >= 1";
  let disk = match disk with Some d -> d | None -> Disk.real () in
  (* The box may be created before the journal makes its store
     directory (the fleet hands one box per scenario to a run that has
     not opened its journal yet). *)
  let dir = Filename.dirname path in
  if not (Disk.exists disk dir) then Disk.mkdir_p disk dir;
  let t =
    {
      disk;
      bb_path = path;
      bb_ring = Flight.create ?capacity ();
      rewrite_bytes;
      bytes = 0;
    }
  in
  rewrite t;
  t

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
    if t.bytes + String.length bytes > t.rewrite_bytes then rewrite t
    else append t bytes

let close t = flush t

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
