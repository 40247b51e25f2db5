type t = {
  flag : bool Atomic.t;
  parent : t option;
}

let create ?parent () = { flag = Atomic.make false; parent }

let cancel t = Atomic.set t.flag true

let rec is_cancelled t =
  Atomic.get t.flag
  || (match t.parent with Some p -> is_cancelled p | None -> false)

let guard t () = is_cancelled t
