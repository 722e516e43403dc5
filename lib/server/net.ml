(* Addresses and listen sockets, shared by the session server
   ([Server]) and the sharding router ([Router]). *)

type address = Unix_socket of string | Tcp of string * int

(* A bad host name is an operator typo, not a crash: resolution failures
   come back as a clean [Error] naming the host. *)
let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          Error (Printf.sprintf "host %S has no address" host)
      | entry -> Ok entry.Unix.h_addr_list.(0)
      | exception Not_found -> Error (Printf.sprintf "unknown host %S" host))

(* Is something accepting on this Unix socket path right now? A stale
   file left by a crashed server refuses the connect; a live server
   completes it. *)
let unix_socket_live path =
  let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let live =
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () -> true
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        false
    | exception Unix.Unix_error _ ->
        (* can't prove it stale (EACCES, ...): refuse to steal it *)
        true
  in
  (try Unix.close probe with Unix.Unix_error _ -> ());
  live

(* Every listener is close-on-exec: the [Shard] supervisor forks
   children with [Unix.create_process], and an inherited listen or
   connection fd would keep dead clients from ever seeing EOF. *)
let listen_socket = function
  | Unix_socket path ->
      if Sys.file_exists path then
        if unix_socket_live path then
          failwith
            (Printf.sprintf
               "cannot listen on %s: address in use by a live server" path)
        else Sys.remove path;
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, Some path)
  | Tcp (host, port) ->
      let addr =
        match resolve_host host with
        | Ok addr -> addr
        | Error message -> failwith ("cannot listen: " ^ message)
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      (fd, None)

let port_of fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> Some port
  | _ -> None

let address_label = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port
