package tpch

import (
	"fmt"

	"cqabench/internal/mt"
	"cqabench/internal/relation"
)

// Config parameterizes data generation. ScaleFactor follows the TPC-H
// convention: SF = 1 yields the official row counts (~8.7M tuples); the
// benchmark harness typically uses SF around 0.001–0.01. Seed fixes the
// pseudo-random stream (MT19937-64, like the paper's implementation).
type Config struct {
	ScaleFactor float64
	Seed        uint64
}

// Official TPC-H base cardinalities at SF = 1. region and nation are fixed.
const (
	baseSupplier = 10000
	basePart     = 200000
	baseCustomer = 150000
	baseOrders   = 1500000
)

var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
	// nationRegion maps each nation to its TPC-H region.
	nationRegion = []int{
		0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1,
	}
	mktSegments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	orderPriorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	orderStatuses   = []string{"O", "F", "P"}
	returnFlags     = []string{"R", "A", "N"}
	lineStatuses    = []string{"O", "F"}
	shipInstructs   = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipModes       = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	containers      = []string{"SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "JUMBO PKG", "WRAP JAR"}
	brands          = []string{"Brand#11", "Brand#12", "Brand#13", "Brand#21", "Brand#22", "Brand#23", "Brand#31", "Brand#32", "Brand#33", "Brand#34"}
	mfgrs           = []string{"Manufacturer#1", "Manufacturer#2", "Manufacturer#3", "Manufacturer#4", "Manufacturer#5"}
	partTypes       = []string{"STANDARD ANODIZED TIN", "SMALL PLATED COPPER", "MEDIUM BURNISHED NICKEL", "LARGE BRUSHED STEEL", "ECONOMY POLISHED BRASS", "PROMO ANODIZED STEEL"}
	partNames       = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse", "chiffon", "chocolate", "coral", "cornflower"}
	comments        = []string{"fluffily", "carefully", "quickly", "slyly", "furiously", "blithely", "quietly", "daringly"}
)

// scaled returns max(1, round(base * sf)).
func scaled(base int, sf float64) int {
	n := int(float64(base)*sf + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// suppliersPerPart returns how many suppliers each part has: 4 as in
// TPC-H, capped by the supplier count at tiny scale factors.
func suppliersPerPart(nSupp int) int {
	if nSupp < 4 {
		return nSupp
	}
	return 4
}

// supplierForPart returns the k-th supplier of part p. The stride spreads
// a part's suppliers across the supplier range; successive k values are
// guaranteed distinct so partsupp's composite key is never violated.
func supplierForPart(p, k, nSupp int) int {
	stride := nSupp / 4
	if stride < 1 {
		stride = 1
	}
	return 1 + (p+k*stride)%nSupp
}

// Generate produces a consistent TPC-H database. It is deterministic for a
// fixed Config.
func Generate(cfg Config) (*relation.Database, error) {
	if cfg.ScaleFactor <= 0 {
		return nil, fmt.Errorf("tpch: scale factor must be positive, got %v", cfg.ScaleFactor)
	}
	src := mt.New(cfg.Seed)
	db := relation.NewDatabase(Schema())

	nSupp := scaled(baseSupplier, cfg.ScaleFactor)
	nPart := scaled(basePart, cfg.ScaleFactor)
	nCust := scaled(baseCustomer, cfg.ScaleFactor)
	nOrd := scaled(baseOrders, cfg.ScaleFactor)

	pick := func(xs []string) string { return xs[src.Intn(len(xs))] }
	comment := func() string { return pick(comments) + " " + pick(comments) }

	for i, name := range regionNames {
		db.MustInsert("region", i, name, comment())
	}
	for i, name := range nationNames {
		db.MustInsert("nation", i, name, nationRegion[i], comment())
	}
	for i := 1; i <= nSupp; i++ {
		db.MustInsert("supplier",
			i,
			fmt.Sprintf("Supplier#%09d", i),
			fmt.Sprintf("addr-s-%d", src.Intn(nSupp*4+1)),
			src.Intn(len(nationNames)),
			fmt.Sprintf("%02d-%07d", 10+src.Intn(25), src.Intn(10000000)),
			src.Intn(1099999)-99999, // account balance in cents
			comment(),
		)
	}
	for i := 1; i <= nPart; i++ {
		db.MustInsert("part",
			i,
			pick(partNames)+" "+pick(partNames),
			pick(mfgrs),
			pick(brands),
			pick(partTypes),
			1+src.Intn(50),
			pick(containers),
			90000+i%200*100+src.Intn(100), // retail price in cents
			comment(),
		)
	}
	// partsupp: each part is supplied by 4 suppliers (as in TPC-H).
	perPart := suppliersPerPart(nSupp)
	for p := 1; p <= nPart; p++ {
		for k := 0; k < perPart; k++ {
			s := supplierForPart(p, k, nSupp)
			db.MustInsert("partsupp",
				p, s,
				1+src.Intn(9999),
				100+src.Intn(99900), // supply cost in cents
				comment(),
			)
		}
	}
	for i := 1; i <= nCust; i++ {
		db.MustInsert("customer",
			i,
			fmt.Sprintf("Customer#%09d", i),
			fmt.Sprintf("addr-c-%d", src.Intn(nCust*4+1)),
			src.Intn(len(nationNames)),
			fmt.Sprintf("%02d-%07d", 10+src.Intn(25), src.Intn(10000000)),
			src.Intn(1099999)-99999,
			pick(mktSegments),
			comment(),
		)
	}
	// orders and lineitem: each order has 1–7 lineitems (TPC-H averages 4).
	for o := 1; o <= nOrd; o++ {
		cust := 1 + src.Intn(nCust)
		orderDay := src.Intn(totalDays - 151) // leave room for shipping
		db.MustInsert("orders",
			o,
			cust,
			pick(orderStatuses),
			1000000+src.Intn(50000000), // total price in cents
			encodeDate(orderDay),
			pick(orderPriorities),
			fmt.Sprintf("Clerk#%09d", 1+src.Intn(nOrd/100+1)),
			0,
			comment(),
		)
		nLines := 1 + src.Intn(7)
		for l := 1; l <= nLines; l++ {
			p := 1 + src.Intn(nPart)
			// Choose one of the part's suppliers so the
			// (l_partkey, l_suppkey) -> partsupp FK holds.
			k := src.Intn(perPart)
			s := supplierForPart(p, k, nSupp)
			shipDay := orderDay + 1 + src.Intn(120)
			db.MustInsert("lineitem",
				o, l, p, s,
				1+src.Intn(50),
				100000+src.Intn(9000000), // extended price in cents
				src.Intn(11),             // discount in percent
				src.Intn(9),              // tax in percent
				pick(returnFlags),
				pick(lineStatuses),
				encodeDate(shipDay),
				encodeDate(shipDay+src.Intn(30)),
				encodeDate(shipDay+src.Intn(30)),
				pick(shipInstructs),
				pick(shipModes),
				comment(),
			)
		}
	}
	return db, nil
}

// MustGenerate is Generate but panics on error; for tests and examples.
func MustGenerate(cfg Config) *relation.Database {
	db, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return db
}
