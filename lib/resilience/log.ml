module Codec = Poc_util.Codec

type t = {
  disk : Disk.t;
  path : string;
  mutable file : Disk.file;
  mutable size : int;
}

let create disk path =
  { disk; path; file = Disk.open_trunc disk path; size = 0 }

let replay disk path ~decode =
  Codec.scan ~from:0 ~decode (Disk.read_file disk path)

let reopen disk path ~at ~truncate =
  if truncate then Disk.truncate_file disk path at;
  { disk; path; file = Disk.open_append disk path; size = at }

let append t bytes =
  match
    Disk.append t.disk t.file bytes;
    Disk.sync t.disk t.file
  with
  | () -> t.size <- t.size + String.length bytes
  | exception (Sys_error _ as e) ->
    (try Disk.close_file t.disk t.file with Sys_error _ -> ());
    (try Disk.truncate_file t.disk t.path t.size with Sys_error _ -> ());
    t.file <- Disk.open_append t.disk t.path;
    raise e

let size t = t.size
let close t = try Disk.close_file t.disk t.file with Sys_error _ -> ()

let read_single disk path =
  match Disk.read_file disk path with
  | exception Sys_error _ -> None
  | data -> Codec.single data
