(** Addresses and listen sockets, shared by {!Server} and {!Router};
    {!Server} re-exports {!address} so existing callers keep their
    spelling. Connections themselves are served by {!Event_loop}. *)

type address = Unix_socket of string | Tcp of string * int

val resolve_host : string -> (Unix.inet_addr, string) result
(** Resolve a dotted quad or host name; failures are an [Error] naming
    the host, never an exception. *)

val listen_socket : address -> Unix.file_descr * string option
(** Bind + listen (close-on-exec); the [string option] is a Unix socket
    path to unlink on shutdown. An existing Unix socket path is
    probe-connected first: a stale file (crashed server) is cleaned and
    reused, but a path a live server is still accepting on is refused —
    starting a second server must not silently steal the first one's
    socket. Anything else at the path (a file, a directory) is left
    alone and refused.
    @raise Failure on an unresolvable TCP host, a live socket path or a
    path that exists and is not a socket. *)

val port_of : Unix.file_descr -> int option
(** The bound port, for [Tcp] listeners (the kernel's pick under
    port 0). *)

val address_label : address -> string

val socket_for : address -> Unix.file_descr * Unix.sockaddr
(** A fresh close-on-exec stream socket for [address], and the address
    to connect it to.
    @raise Failure on an unresolvable TCP host (message naming it). *)

val start_connect : address -> Unix.file_descr * bool
(** A {!socket_for} [address], made non-blocking, with its connect
    started; [true] when the connect is still in progress (wait for
    writability, then read [SO_ERROR]).
    @raise Unix.Unix_error when the connect fails at once.
    @raise Failure on an unresolvable TCP host. *)

val cannot_connect : address -> Unix.error -> string
(** The one-line ["cannot connect: <peer>: <reason>"] message every
    failed outbound connect reports. *)
