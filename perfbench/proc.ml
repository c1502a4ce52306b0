(* The server as a child process, plus the file-system chores around
   it: data directories, /proc readings, and `pet audit`. *)

type t = { pid : int; conn : Conn.t; mutable reaped : bool }

let spawn ~exe ~args ~log =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) in_r out_w err in
  List.iter Unix.close [ in_r; out_w; err ];
  { pid; conn = Conn.create ~rfd:out_r ~wfd:in_w; reaped = false }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Wait for the child to exit, killing it after 30 s. *)
let reap t =
  if not t.reaped then begin
    let deadline = Unix.gettimeofday () +. 30. in
    let rec go () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid)
        end
        else begin
          Unix.sleepf 0.005;
          go ()
        end
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ();
    t.reaped <- true;
    close_quietly t.conn.Conn.rfd;
    close_quietly t.conn.Conn.wfd
  end

(* Graceful stop of a stdio server: end of input, then exit. *)
let stop t =
  close_quietly t.conn.Conn.wfd;
  reap t

let kill9 t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap t
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* User plus system CPU seconds of every thread of [pid] (clock ticks
   of 1/100 s, the Linux USER_HZ). *)
let cpu_seconds pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_string (f.(11)) +. float_of_string f.(12) |> fun ticks -> ticks /. 100.

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' s)
  in
  let kb =
    List.filter (fun w -> w <> "" && w.[0] >= '0' && w.[0] <= '9')
      (String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line))
  in
  float_of_string (List.hd kb) /. 1024.

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755

let copy_dir src dst =
  fresh_dir dst;
  Array.iter
    (fun e ->
      Out_channel.with_open_bin (Filename.concat dst e) (fun oc ->
          Out_channel.output_string oc (read_file (Filename.concat src e))))
    (Sys.readdir src)

let dir_bytes path =
  Array.fold_left
    (fun acc e -> acc + (Unix.stat (Filename.concat path e)).Unix.st_size)
    0 (Sys.readdir path)

(* Run `pet audit DIR`; its report goes to [log]. Returns whether it
   passed (exit 0) and its wall time. *)
let audit ~exe ~log dir =
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let null_r, null_w = Unix.pipe ~cloexec:true () in
  Unix.close null_w;
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process exe [| exe; "audit"; dir |] null_r out out in
  let _, status = Unix.waitpid [] pid in
  let dt = Unix.gettimeofday () -. t0 in
  Unix.close out;
  Unix.close null_r;
  (status = Unix.WEXITED 0, dt)

(* Poll for the port file a TCP server writes once it is listening;
   [None] after 120 s. *)
let wait_port file =
  let deadline = Unix.gettimeofday () +. 120. in
  let rec go () =
    match read_file file with
    | s when String.length s > 0 && s.[String.length s - 1] = '\n' ->
      Some (int_of_string (String.trim s))
    | _ | (exception Sys_error _) ->
      if Unix.gettimeofday () > deadline then None
      else begin
        Unix.sleepf 0.002;
        go ()
      end
  in
  go ()

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Conn.create ~rfd:fd ~wfd:fd
