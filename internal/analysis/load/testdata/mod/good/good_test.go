package good

// testOnly does not type-check: the loader must never see this file.
func testOnly() int { return undefinedInTests }
