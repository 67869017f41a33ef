(* Hardened Unix-domain socket transport, shared by `agrid serve` and the
   fleet router's front end. A long-lived daemon's accept loop must
   survive whatever clients do to it: EINTR (a signal landed) retries the
   accept, connection-level failures (ECONNABORTED, a peer resetting
   mid-handshake, EMFILE) drop that connection and keep listening, and a
   read error mid-connection drops only that connection. Every dropped
   connection or failed write is counted so operators can see flapping
   clients in the obs export instead of silence. *)

module Sink = Agrid_obs.Sink

type t = { sock : Unix.file_descr; path : string }

(* A peer that hangs up turns our next write into SIGPIPE, whose default
   disposition kills the process — the opposite of "never crash the
   daemon". Ignoring it turns those writes into EPIPE (a Sys_error
   through the channel layer), which the error paths here count. *)
let ignore_sigpipe () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

let listen ~path =
  ignore_sigpipe ();
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a stale socket file from a previous run would make bind fail *)
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match
    Unix.bind sock (Unix.ADDR_UNIX path);
    Unix.listen sock 8
  with
  | () -> Ok { sock; path }
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error (Fmt.str "cannot listen on %s: %s" path (Unix.error_message err))

(* Closing a listening socket does not wake a thread blocked in
   [accept] on it (Linux); shutting it down first does, with EINVAL,
   which [accept_loop] takes as "the socket is gone". *)
let shutdown t =
  (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  try Unix.unlink t.path with Unix.Unix_error _ -> ()

(* Sys_error covers both a read interrupted by a signal and one cut short
   by a resetting peer; the distinction doesn't matter to callers, only
   that the connection is over and whether it ended cleanly. *)
let pump ~stop ~on_line ic =
  let rec loop () =
    if stop () then `Stopped
    else
      match input_line ic with
      | line ->
          on_line line;
          loop ()
      | exception End_of_file -> `Eof
      | exception Sys_error _ -> `Read_error
  in
  loop ()

(* One-shot client: connect, send one request line, read one response
   line. What `agrid top` does every poll tick — a fresh connection per
   request keeps the daemon's one-connection-at-a-time accept loop free
   between polls. *)
let request ~path line =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  | fd -> (
      ignore_sigpipe ();
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | exception Unix.Unix_error (err, _, _) ->
          finally ();
          Error (Fmt.str "cannot connect to %s: %s" path (Unix.error_message err))
      | () -> (
          let oc = Unix.out_channel_of_descr fd in
          let ic = Unix.in_channel_of_descr fd in
          match
            output_string oc line;
            output_char oc '\n';
            flush oc;
            input_line ic
          with
          | reply ->
              finally ();
              Ok reply
          | exception End_of_file ->
              finally ();
              Error "connection closed before a response arrived"
          | exception Sys_error msg ->
              finally ();
              Error msg))

let accept_loop ?(obs = Sink.noop) ?(counter = "serve/conn_errors") ~stop ~handle t =
  let rec loop () =
    if not (stop ()) then
      match Unix.accept t.sock with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
          (* the listening socket itself is gone: shutdown raced the accept *)
          ()
      | exception Unix.Unix_error (_, _, _) ->
          Sink.incr obs counter;
          loop ()
      | fd, _ ->
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          let respond line =
            (* a client hanging up mid-response must not kill the daemon *)
            try
              output_string oc line;
              output_char oc '\n';
              flush oc
            with Sys_error _ -> Sink.incr obs counter
          in
          (match handle ~respond ~ic with
          | `Eof | `Stopped -> ()
          | `Read_error -> Sink.incr obs counter);
          (try flush oc with Sys_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ());
          loop ()
  in
  loop ()
