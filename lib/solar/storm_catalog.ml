type event = {
  name : string;
  year : int;
  month : int;
  dst_nt : float;
  cme : Cme.t;
  hit_earth : bool;
  notes : string;
}

let carrington =
  {
    name = "Carrington event";
    year = 1859;
    month = 9;
    dst_nt = -1200.0;
    cme = Cme.carrington_1859;
    hit_earth = true;
    notes =
      "17.6 h transit; telegraph fires and shocks; outages across North \
       America and Europe";
  }

let new_york_railroad =
  {
    name = "New York Railroad superstorm";
    year = 1921;
    month = 5;
    dst_nt = -907.0;
    cme = Cme.new_york_railroad_1921;
    hit_earth = true;
    notes = "strongest storm of the 20th century; telegraph and railroad damage";
  }

let quebec =
  {
    name = "Quebec storm";
    year = 1989;
    month = 3;
    dst_nt = -589.0;
    cme = Cme.quebec_1989;
    hit_earth = true;
    notes =
      "Hydro-Quebec grid collapse, 200+ US grid events; potential variations \
       on the NJ-UK AT&T submarine cable";
  }

let halloween =
  {
    name = "Halloween storms";
    year = 2003;
    month = 10;
    dst_nt = -383.0;
    cme = Cme.halloween_2003;
    hit_earth = true;
    notes = "Swedish blackout; satellite anomalies";
  }

let near_miss_2012 =
  {
    name = "July 2012 near miss";
    year = 2012;
    month = 7;
    dst_nt = -1150.0;
    cme = Cme.near_miss_2012;
    hit_earth = false;
    notes = "Carrington-scale CME through Earth's orbit, missed by ~1 week";
  }

let all = [ carrington; new_york_railroad; quebec; halloween; near_miss_2012 ]

let strongest = carrington

let contains_ci hay needle =
  let hay = String.lowercase_ascii hay and needle = String.lowercase_ascii needle in
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then true
  else
    let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
    scan 0

let find name = List.find_opt (fun e -> contains_ci e.name name) all

let severity e = Dst.severity_of_dst e.dst_nt
