let flag = Atomic.make false
let enable () = Atomic.set flag true
let disable () = Atomic.set flag false
let enabled () = Atomic.get flag
