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
   connection fd would keep dead clients from ever seeing EOF. Only a
   stale socket is removed from the path: a file or directory there is
   someone's data, not ours to delete. *)
let listen_socket = function
  | Unix_socket path ->
      (match (Unix.lstat path).st_kind with
      | Unix.S_SOCK when unix_socket_live path ->
          failwith
            (Printf.sprintf
               "cannot listen on %s: address in use by a live server" path)
      | Unix.S_SOCK -> Sys.remove path
      | _ ->
          failwith
            (Printf.sprintf "cannot listen on %s: exists and is not a socket"
               path)
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
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

let peer_label = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let cannot_connect address error =
  Printf.sprintf "cannot connect: %s: %s" (peer_label address)
    (Unix.error_message error)

let socket_for address =
  let domain, sockaddr =
    match address with
    | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp (host, port) -> (
        match resolve_host host with
        | Ok addr -> (Unix.PF_INET, Unix.ADDR_INET (addr, port))
        | Error message -> failwith ("cannot connect: " ^ message))
  in
  (Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0, sockaddr)

(* Only a TCP connect can be in progress: a Unix socket connects at once
   or fails (EAGAIN when the listener's backlog is full). *)
let start_connect address =
  let fd, sockaddr = socket_for address in
  match
    Unix.set_nonblock fd;
    Unix.connect fd sockaddr
  with
  | () -> (fd, false)
  | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (fd, true)
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
