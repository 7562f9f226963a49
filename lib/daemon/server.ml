module Supervisor = Poc_resilience.Supervisor
module Metrics = Poc_obs.Metrics
module Clock = Poc_obs.Clock

type config = {
  socket_path : string;
  metrics_port : int option;
  idle_timeout : float;
}

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes of a frame still in flight *)
  http : bool;
  mutable fresh : bool;  (* no byte received yet *)
  mutable since : float;  (* when the current partial request started *)
}

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let k = Unix.write fd b off (n - off) in
      go (off + k)
  in
  go 0

let http_response body =
  Printf.sprintf
    "HTTP/1.0 200 OK\r\n\
     Content-Type: text/plain; version=0.0.4\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\r\n%s"
    (String.length body) body

(* Which run a framed reply concerns: the command's target, or -1 for
   daemon-scope replies (RUNS, an OPEN with no explicit id). *)
let reply_run = function
  | Protocol.Scoped { run; req = _ } -> run
  | Protocol.Open_run { run; _ } -> Option.value run ~default:(-1)
  | Protocol.Close_run { run } -> run
  | Protocol.List_runs -> -1

let serve cfg registry =
  if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen srv 16;
  let http_srv =
    Option.map
      (fun port ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt s Unix.SO_REUSEADDR true;
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen s 16;
        s)
      cfg.metrics_port
  in
  let conns = ref [] in
  let stop = ref false in
  let old_term = ref Sys.Signal_default and old_int = ref Sys.Signal_default in
  old_term := Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  old_int := Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let close_conn c =
    conns := List.filter (fun c' -> c'.fd != c.fd) !conns;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let cleanup () =
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      !conns;
    (try Unix.close srv with Unix.Unix_error _ -> ());
    Option.iter
      (fun s -> try Unix.close s with Unix.Unix_error _ -> ())
      http_srv;
    (try Sys.remove cfg.socket_path with Sys_error _ -> ());
    Sys.set_signal Sys.sigterm !old_term;
    Sys.set_signal Sys.sigint !old_int
  in
  let exit_code = ref None in
  (* One reply frame per line, the last one final, in one write. *)
  let respond c ~run lines =
    let last = List.length lines - 1 in
    try
      write_all c.fd
        (String.concat ""
           (List.mapi
              (fun i line ->
                Framing.encode_reply { Framing.run; final = i = last; line })
              lines))
    with Unix.Unix_error _ -> close_conn c
  in
  let run_command c cmd =
    let lines, action = Registry.dispatch registry cmd in
    respond c ~run:(reply_run cmd) lines;
    match action with
    | Registry.Continue -> ()
    | Registry.Stop -> exit_code := Some 0
  in
  let drain_frames c =
    let data = Buffer.contents c.buf in
    let { Framing.items; consumed; dropped = _ } =
      Framing.decode_stream data ~pos:0
    in
    Buffer.clear c.buf;
    Buffer.add_substring c.buf data consumed (String.length data - consumed);
    List.iter
      (fun item ->
        if !exit_code = None then
          match item with
          | Framing.Msg m -> run_command c (Framing.to_command m)
          | Framing.Reply _ ->
            (* Clients do not send replies; drop, keep the connection. *)
            ())
      items
  in
  (* Every frame starts with the magic byte, so a connection whose first
     byte is not it (a line client's) speaks no frames: the client gets
     EOF, not silence.  Later garbage resyncs like a corrupt frame. *)
  let receive c b n =
    if c.fresh && Bytes.get b 0 <> Framing.magic then close_conn c
    else begin
      c.fresh <- false;
      Buffer.add_subbytes c.buf b 0 n;
      let before = Buffer.length c.buf in
      drain_frames c;
      if Buffer.length c.buf < before then c.since <- Clock.now_us ()
    end
  in
  let serve_http fd =
    (* Read whatever request head arrived; any GET gets the registry. *)
    let b = Bytes.create 1024 in
    (try ignore (Unix.read fd b 0 1024) with Unix.Unix_error _ -> ());
    let body = Metrics.to_prometheus Metrics.default in
    (try write_all fd (http_response body) with Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (try
     while !exit_code = None && not !stop do
       let fds =
         (srv :: Option.to_list http_srv)
         @ List.map (fun c -> c.fd) !conns
       in
       (match Unix.select fds [] [] 0.25 with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | readable, _, _ ->
         List.iter
           (fun fd ->
             if fd = srv then begin
               let cfd, _ = Unix.accept srv in
               conns :=
                 { fd = cfd; buf = Buffer.create 256; http = false;
                   fresh = true; since = Clock.now_us () }
                 :: !conns
             end
             else if Some fd = http_srv then begin
               let cfd, _ = Unix.accept (Option.get http_srv) in
               conns :=
                 { fd = cfd; buf = Buffer.create 256; http = true;
                   fresh = true; since = Clock.now_us () }
                 :: !conns
             end
             else
               match List.find_opt (fun c -> c.fd = fd) !conns with
               | None -> ()
               | Some c when c.http ->
                 conns := List.filter (fun c' -> c'.fd != c.fd) !conns;
                 serve_http c.fd
               | Some c -> (
                 let b = Bytes.create 4096 in
                 match Unix.read c.fd b 0 4096 with
                 | 0 -> close_conn c
                 | n -> receive c b n
                 | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
                   ->
                   close_conn c))
           readable);
       (* Drive due restart-with-backoff retries for failing runs. *)
       if !exit_code = None then
         Registry.tick registry ~now_us:(Clock.now_us ());
       (* Partial-request timeout: a stalled half frame is refused so
          one bad client cannot wedge the single-writer loop. *)
       let now = Clock.now_us () in
       List.iter
         (fun c ->
           if
             (not c.http)
             && Buffer.length c.buf > 0
             && (now -. c.since) *. 1e-6 > cfg.idle_timeout
           then begin
             (try
                write_all c.fd
                  (Framing.encode_reply
                     { Framing.run = -1; final = true;
                       line = "ERR timeout: partial request dropped" })
              with Unix.Unix_error _ -> ());
             close_conn c
           end)
         !conns
     done
   with Supervisor.Injected_crash _ ->
     (* Last resort only: the registry absorbs injected crashes inside
        run dispatch.  One escaping anyway (a fault firing outside any
        run scope) exits like [poc-cli supervise] so a restart leg can
        take over. *)
     exit_code := Some 10);
  (match !exit_code with
  | None ->
    (* Signal-driven graceful shutdown: the same stop as a client
       SHUTDOWN. *)
    ignore (Registry.stop registry : string);
    exit_code := Some 0
  | Some _ -> ());
  cleanup ();
  Option.get !exit_code
